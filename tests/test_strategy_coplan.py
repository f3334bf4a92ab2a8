"""Parity and search tests for the strategy co-planner.

The keystone contract: threading the uniform data-parallel strategy
through the demand-IR co-planner reproduces the single-workload OCS
planner **bit for bit** — same floats, same reports, same programs —
for every pure-DP ``strategy_plan_table`` cell against
``topology_plan_table``, and ``execute_demands`` equals ``execute`` on
the reconfigurable substrate.  On top of that anchor, the co-planner's
new knobs (leader placement, per-phase node subsets, multi-strategy
search) must actually move the needle: the searched best is never
worse than any fixed cell, and strided multi-phase profiles win by
reconfiguring.
"""

import re

import numpy as np
import pytest

from repro.collectives.hierarchical_ring import (
    generate_hierarchical_ring, hierarchical_ring_step_count)
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import (HierarchicalSystem, Workload, default_hierarchical,
                          default_ocs)
from repro.core import cost_model
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.core.topoplan import (default_leader_indices, plan_strategy,
                                 profile_demands, strategy_plan_table,
                                 topology_plan_table)
from repro.errors import ConfigurationError
from repro.models.catalog import get_model
from repro.models.strategies import ParallelStrategy

N = 8
WL = Workload(data_bytes=50 * 2 ** 20, name="wl")


class TestExecuteDemands:
    """The substrate's raw-demand entry point vs schedule execution."""

    @pytest.mark.parametrize("lookahead", [False, True])
    def test_delegation_is_bit_for_bit(self, lookahead):
        sys = default_ocs(N)
        sched = generate_ring_allreduce(N)
        sub = OCSReconfigurableSubstrate(system=sys, lookahead=lookahead)
        ref = sub.execute(sched, WL)
        prog_ref = sub.last_program

        from repro.collectives.primitives import transfer_bytes
        demands = [
            {(t.src, t.dst): transfer_bytes(t, WL.data_bytes,
                                            sched.num_chunks)
             for t in step}
            for step in sched.steps]
        counts = [len(step) for step in sched.steps]
        sub2 = OCSReconfigurableSubstrate(system=sys, lookahead=lookahead)
        rep = sub2.execute_demands(demands, name=sched.name,
                                   transfer_counts=counts)
        assert rep == ref
        assert sub2.last_program == prog_ref

    def test_rejects_empty_program(self):
        sub = OCSReconfigurableSubstrate(system=default_ocs(N))
        with pytest.raises(ConfigurationError):
            sub.execute_demands([])
        with pytest.raises(ConfigurationError):
            sub.execute_demands([{}])

    #: One bad entry in step 1, after a valid step 0.
    BAD_ENTRIES = {
        "nan-bytes": ((0, 2), float("nan")),
        "inf-bytes": ((0, 2), float("inf")),
        "zero-bytes": ((0, 2), 0.0),
        "negative-bytes": ((0, 2), -1.0),
        "self-loop": ((3, 3), 1e6),
        "negative-node": ((-1, 2), 1e6),
        "float-node": ((0, 1.5), 1e6),
        "bool-node": ((0, True), 1e6),
        "short-key": ((0,), 1e6),
        "string-bytes": ((0, 2), "5"),
        "bool-bytes": ((0, 2), True),
    }

    @pytest.mark.parametrize("lookahead", [False, True])
    @pytest.mark.parametrize("bad", sorted(BAD_ENTRIES))
    def test_rejects_bad_entry_before_planning(self, bad, lookahead):
        pair, size = self.BAD_ENTRIES[bad]
        sub = OCSReconfigurableSubstrate(system=default_ocs(N),
                                         lookahead=lookahead)
        fresh = sub.describe()
        demands = [{(0, 1): 1e6}, {(1, 2): 1e6, pair: size}]
        with pytest.raises(ConfigurationError, match=re.escape(
                f"step 1 of 'demand-program': pair {pair}")):
            sub.execute_demands(demands)
        assert sub.describe() == fresh  # no step was priced
        assert sub.last_program is None

    def test_accepts_numpy_ids_and_byte_counts(self):
        plain = [{(0, 1): 1e6}, {(1, 2): 2e6}]
        numpy_typed = [{(np.int64(s), np.int32(d)): np.float64(b)
                        for (s, d), b in step.items()} for step in plain]
        want = OCSReconfigurableSubstrate(
            system=default_ocs(N)).execute_demands(plain)
        assert OCSReconfigurableSubstrate(
            system=default_ocs(N)).execute_demands(numpy_typed) == want

    def test_rejects_float_node_without_a_system(self):
        sub = OCSReconfigurableSubstrate()
        with pytest.raises(ConfigurationError, match=re.escape(
                "step 0 of 'demand-program': pair (0, 1.5)")):
            sub.execute_demands([{(0, 1.5): 1e6}])
        assert sub.last_program is None

    def test_rejects_a_step_that_is_not_a_mapping(self):
        sub = OCSReconfigurableSubstrate(system=default_ocs(N))
        with pytest.raises(ConfigurationError, match=re.escape(
                "step 1 of 'demand-program' is a list")):
            sub.execute_demands([{(0, 1): 1e6}, [(1, 2, 1e6)]])
        assert sub.last_program is None

    def test_profile_demands_concatenates_phases(self):
        prof = ParallelStrategy(data_parallel=2, tensor_parallel=4).lower(
            get_model("alexnet"), bucket_bytes=float("inf"))
        demands, counts, name, schedules = profile_demands(prof, "ring", N)
        assert len(demands) == len(counts)
        # Every phase contributes count x per-occurrence steps.
        expect = sum(ph.count * 2 * (ph.group_size - 1)
                     for ph in prof.phases)
        assert len(demands) == expect
        assert len(schedules) == prof.num_phases


class TestLeaderPlacement:
    def test_default_leader_is_legacy(self):
        # No leader knob -> the historical last-node leader, same name,
        # same step count, same closed-form time.
        legacy = generate_hierarchical_ring(16, 4)
        assert "-l" not in legacy.name
        sys = default_hierarchical(16, group_size=4)
        assert sys.resolved_leader_index == 3
        explicit = generate_hierarchical_ring(16, 4, leader_index=3)
        assert explicit.name == legacy.name
        assert [len(s) for s in explicit.steps] \
            == [len(s) for s in legacy.steps]

    def test_leader_candidates_cover_the_optimum(self):
        assert default_leader_indices(4) == (1, 2, 3)
        assert default_leader_indices(5) == (2, 4)
        assert default_leader_indices(1) == (0,)

    def test_middle_leader_never_slower(self):
        # Depth max(l, g-1-l) is minimized at the middle; the closed
        # form (validated exact against the substrate) must agree.
        for g in (4, 5, 8):
            sys = default_hierarchical(2 * g, group_size=g)
            t_default = cost_model.hier_rack_time(sys, WL)
            t_best = min(
                cost_model.hier_rack_time(
                    sys.with_(leader_index=ell), WL)
                for ell in default_leader_indices(g))
            assert t_best <= t_default

    def test_leader_knob_validated(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSystem(num_nodes=8, group_size=4,
                               leader_index=4)

    def test_step_count_tracks_leader_depth(self):
        # Middle leader shortens the local pipeline depth.
        assert hierarchical_ring_step_count(16, 4, leader_index=1) \
            < hierarchical_ring_step_count(16, 4, leader_index=3)


class TestStrategySearch:
    def test_search_best_is_min_of_the_grid(self):
        table = strategy_plan_table(N, "alexnet",
                                    bucket_bytes=float("inf"))
        best = plan_strategy(N, "alexnet", bucket_bytes=float("inf"))
        assert best.predicted_time == min(p.predicted_time for p in table)

    def test_pure_dp_arm_matches_legacy_topoplan(self):
        # Restrict the search to the legacy strategy: its simulated
        # OCS cells must be exactly the legacy topology grid — two
        # lowerings (concatenated demand matrices through
        # ``execute_demands`` vs the schedule through ``execute``) that
        # agree bit for bit on time, report, program, and step count.
        def cell(p):
            return (p.predicted_time, p.report, p.program, p.num_steps)

        for n in (8, 16):
            strat = ParallelStrategy(data_parallel=n)
            table = strategy_plan_table(
                n, "alexnet", strategies=[strat], rack_sizes=(),
                fidelity="simulate", bucket_bytes=float("inf"))
            wl = strat.lower(get_model("alexnet"),
                             bucket_bytes=float("inf")).to_workload()
            legacy = {(p.algorithm, p.policy): cell(p)
                      for p in topology_plan_table(default_ocs(n), wl)}
            ours = {(p.algorithm, p.policy): cell(p)
                    for p in table if p.fabric == "ocs-reconfig"}
            assert ours == legacy

    def test_analytic_fidelity_ranks_without_simulating(self):
        table = strategy_plan_table(N, "alexnet", fidelity="analytic",
                                    bucket_bytes=float("inf"))
        ocs = [p for p in table if p.fabric == "ocs-reconfig"]
        assert ocs and all(p.policy == "analytic" and p.report is None
                           for p in ocs)

    def test_hybrid_simulates_only_survivors(self):
        table = strategy_plan_table(N, "alexnet", top_k=1,
                                    bucket_bytes=float("inf"))
        simulated = {(p.strategy.name, p.algorithm)
                     for p in table if p.fabric == "ocs-reconfig"}
        assert len(simulated) == 1

    def test_coplan_never_worse_than_any_fixed_cell(self):
        table = strategy_plan_table(N, "vgg16")
        best = plan_strategy(N, "vgg16")
        static = [p for p in table
                  if p.policy in ("static", "closed-form")]
        assert static
        assert best.predicted_time <= min(p.predicted_time for p in static)

    def test_multi_phase_profile_prefers_model_parallelism(self):
        # alexnet's activations are tiny next to its gradients, so the
        # co-planner must walk away from pure DP at full width.
        best = plan_strategy(N, "alexnet")
        assert best.strategy.tensor_parallel > 1
