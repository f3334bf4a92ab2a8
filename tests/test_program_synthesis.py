"""Tests for the lookahead OCS program synthesizer.

The keystone guarantee: :func:`synthesize_program`'s plan is **never
worse** than the substrate's myopic per-step policy — on every
schedule, at every reconfiguration delay (the greedy trajectory is
simulated alongside the DP with identical arithmetic and force-merged
into the frontier, so the bound holds by construction, not by luck).
At the extremes the two coincide exactly: ``delay=inf`` leaves the DP
no moves (the substrate short-circuits to the greedy path —
bit-for-bit reports *and* errors), and ``delay=0`` makes the myopic
choice optimal on matching schedules.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.topology.program as ocs_program
from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload, default_ocs
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.core.topoplan import POLICIES, plan_topology, topology_plan_table
from repro.errors import ConfigurationError, TopologyError
from repro.topology.program import (CircuitConfig, degree_counts,
                                    demand_aware_boot_config,
                                    greedy_demand_rounds,
                                    max_pair_degree, price_demand_rounds,
                                    ring_circuit_config,
                                    stripe_round_serialization,
                                    synthesize_program)

N = 8
WL = Workload(data_bytes=1 << 20, name="wl")
RD = generate_recursive_doubling(N)
RING = generate_ring_allreduce(N)


def ocs(**kw):
    return default_ocs(N).with_(**kw)


def _random_schedule(rng_draw, num_steps, num_pairs):
    sched = []
    for step in range(num_steps):
        sizes = {}
        for j in range(num_pairs):
            s = (step * 3 + j * 5) % N
            d = (s + 1 + (step + j) % (N - 1)) % N
            sizes[(s, d)] = float((rng_draw + j + 1) * 10000)
        sched.append(sizes)
    return sched


class TestDominance:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           num_steps=st.integers(1, 6),
           num_pairs=st.integers(1, 6),
           delay=st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, 1.0]))
    def test_never_worse_than_greedy(self, seed, num_steps, num_pairs,
                                     delay):
        sched = _random_schedule(seed, num_steps, num_pairs)
        prog = synthesize_program(sched, ocs(reconfiguration_delay=delay))
        assert prog.total_time <= prog.greedy_time
        assert prog.reconfigurations_saved >= 0

    @pytest.mark.parametrize("delay", [0.0, 1e-5, 1e-3, 1e-1])
    @pytest.mark.parametrize("sched", [RD, RING],
                             ids=["recursive-doubling", "ring"])
    def test_substrate_lookahead_never_worse(self, sched, delay):
        system = ocs(reconfiguration_delay=delay)
        greedy = OCSReconfigurableSubstrate(system).execute(sched, WL)
        look = OCSReconfigurableSubstrate(system, lookahead=True) \
            .execute(sched, WL)
        assert look.total_time <= greedy.total_time


class TestEqualityPins:
    def test_delay_zero_matches_greedy_exactly(self):
        """An infinitely agile OCS: the myopic choice is already
        optimal on matchings, so the DP ties it to the float."""
        system = ocs(reconfiguration_delay=0.0)
        for sched in (RD, RING):
            greedy = OCSReconfigurableSubstrate(system).execute(sched, WL)
            look = OCSReconfigurableSubstrate(system, lookahead=True) \
                .execute(sched, WL)
            assert look.total_time == greedy.total_time

    def test_delay_inf_is_bit_for_bit_greedy(self):
        """Reconfiguration disabled: lookahead short-circuits to the
        greedy code path — identical whole reports."""
        system = ocs(reconfiguration_delay=float("inf"))
        greedy = OCSReconfigurableSubstrate(system).execute(RING, WL)
        look = OCSReconfigurableSubstrate(system, lookahead=True) \
            .execute(RING, WL)
        assert look.steps == greedy.steps
        assert look.total_time == greedy.total_time

    def test_delay_inf_error_semantics_identical(self):
        lonely = CircuitConfig.of([(0, 1)])
        system = ocs(reconfiguration_delay=float("inf"))
        for kwargs in ({}, {"lookahead": True}):
            sub = OCSReconfigurableSubstrate(system, initial=lonely,
                                             **kwargs)
            with pytest.raises(ConfigurationError, match="unroutable"):
                sub.execute(RING, WL)


class TestAmortisation:
    def test_install_amortises_repeated_demand(self):
        """The same matching served every step: greedy pays the delay
        once then stays; a *cycling* pair of matchings makes greedy pay
        every step while lookahead installs their union once."""
        a = {(0, 2): 1e7, (1, 3): 1e7, (4, 6): 1e7, (5, 7): 1e7}
        b = {(2, 4): 1e7, (3, 5): 1e7, (6, 0): 1e7, (7, 1): 1e7}
        sched = [a, b, a, b, a, b]
        system = ocs(reconfiguration_delay=2e-4)
        prog = synthesize_program(sched, system)
        assert prog.total_time < prog.greedy_time
        assert prog.reconfigurations < prog.greedy_reconfigurations
        assert prog.reconfigurations_saved > 0

    def test_substrate_counter_accumulates(self):
        a = {(0, 2): 1e7, (1, 3): 1e7, (4, 6): 1e7, (5, 7): 1e7}
        b = {(2, 4): 1e7, (3, 5): 1e7, (6, 0): 1e7, (7, 1): 1e7}
        from repro.collectives.schedule import Schedule, Transfer, TransferOp
        sched = Schedule(num_nodes=N, num_chunks=1, name="cycle")
        for sizes in [a, b] * 3:
            sched.add_step([Transfer(src=s, dst=d, chunks=(0,),
                                     op=TransferOp.REDUCE)
                            for s, d in sizes])
        sub = OCSReconfigurableSubstrate(ocs(reconfiguration_delay=2e-4),
                                         lookahead=True)
        sub.execute(sched, Workload(data_bytes=1e7, name="wl"))
        params = dict(sub.describe().parameters)
        assert params["lookahead_reconfigs_saved"] > 0
        assert params["lookahead"] is True


class TestPriceDemandRounds:
    def test_evolving_live_set(self):
        """A later round is only free against the circuits actually up
        when it runs — not the step's entry config (the regression the
        frozen-live bug hid: rounds priced free against torn-down
        circuits)."""
        boot = ring_circuit_config(3, bidirectional=False)
        sizes = {(0, 2): 1e6, (1, 2): 1e3}
        rounds = greedy_demand_rounds(((0, 2), (1, 2)), 1)
        assert rounds == [((0, 2),), ((1, 2),)]
        plan = price_demand_rounds(
            rounds, sizes, boot, circuit_rate=1e9, circuit_latency=1e-6,
            reconfiguration_delay=1e-3)
        # (1, 2) is in the boot ring, but round one replaced the whole
        # configuration with {(0, 2)} — both rounds pay the delay.
        assert len(plan.new_configs) == 2
        assert plan.reconfig_time == pytest.approx(2e-3)

    def test_substrate_regression_no_free_ride_on_torn_down_circuits(
            self, monkeypatch):
        """The frozen-live undercount through the substrate: with the
        boot config holding only (1, 2), a forced two-round greedy
        reconfiguration must charge *both* rounds — the old code
        priced round two free against the torn-down boot circuit."""
        # A size limit of 0 decomposes every step greedily.
        monkeypatch.setattr(ocs_program, "OPTIMAL_DECOMPOSITION_LIMIT", 0)
        from repro.collectives.schedule import Schedule, Transfer, TransferOp
        sched = Schedule(num_nodes=3, num_chunks=2, name="undercount")
        sched.add_step([
            Transfer(src=0, dst=2, chunks=(0, 1), op=TransferOp.REDUCE),
            Transfer(src=1, dst=2, chunks=(0,), op=TransferOp.REDUCE),
        ])
        delay = 1e-3
        system = default_ocs(3).with_(ports_per_node=1,
                                      reconfiguration_delay=delay)
        sub = OCSReconfigurableSubstrate(
            system, initial=CircuitConfig.of([(1, 2)]))
        report = sub.execute(sched, WL)
        # stay is unroutable ((0, 2) has no path), so the two greedy
        # rounds [(0, 2)], [(1, 2)] each install a configuration
        assert report.steps[0].tuning_time == pytest.approx(2 * delay)

    def test_covered_rounds_stay_free(self):
        boot = ring_circuit_config(4, bidirectional=True)
        sizes = {(0, 1): 1e6, (1, 2): 1e6}
        plan = price_demand_rounds(
            [((0, 1), (1, 2))], sizes, boot, circuit_rate=1e9,
            circuit_latency=1e-6, reconfiguration_delay=1e-3)
        assert plan.new_configs == ()
        assert plan.config == boot
        assert plan.reconfig_time == 0.0


class TestStriping:
    def test_leftover_ports_split_the_heaviest_pair(self):
        sizes = {(0, 1): 8e6, (2, 3): 1e6}
        ser, k = stripe_round_serialization(
            ((0, 1), (2, 3)), sizes, ports_per_node=4, circuit_rate=1e9)
        plain = max(sizes.values()) / 1e9
        assert k > 1
        assert ser < plain

    def test_no_spare_ports_no_split(self):
        sizes = {(0, 1): 8e6}
        ser, k = stripe_round_serialization(
            ((0, 1),), sizes, ports_per_node=1, circuit_rate=1e9)
        assert k == 1
        assert ser == pytest.approx(8e6 / 1e9)

    def test_occupancy_limits_splits(self):
        # The installed config already uses all of node 0's out-ports
        # (the demand pair itself included) — no room to stripe.
        cfg = CircuitConfig.of([(0, 1), (0, 2), (0, 3)])
        sizes = {(0, 1): 8e6}
        ser, k = stripe_round_serialization(
            ((0, 1),), sizes, ports_per_node=3, circuit_rate=1e9,
            occupancy=degree_counts(cfg.circuits))
        assert k == 1

    def test_striped_synthesis_still_dominates(self):
        sched = [{(0, 1): 8e6, (2, 3): 1e6}] * 3
        prog = synthesize_program(sched, ocs(reconfiguration_delay=1e-4),
                                  stripe_leftover=True)
        assert prog.total_time <= prog.greedy_time


class TestBootConfig:
    def test_heaviest_pairs_seed_the_config(self):
        agg = {(0, 5): 1e9, (3, 6): 1e8, (1, 2): 10.0}
        cfg = demand_aware_boot_config(agg, N, 2)
        cfg.validate(N, 2)
        assert (0, 5) in cfg.circuits
        assert (3, 6) in cfg.circuits

    def test_port_budget_respected(self):
        agg = {(0, d): 1e9 - d for d in range(1, N)}
        cfg = demand_aware_boot_config(agg, N, 2)
        cfg.validate(N, 2)  # would raise if node 0 exceeded 2 out-ports

    def test_demand_initial_on_substrate(self):
        sub = OCSReconfigurableSubstrate(ocs(), initial="demand",
                                         lookahead=True)
        report = sub.execute(RD, WL)
        assert report.total_time > 0

    def test_bad_inputs_rejected(self):
        with pytest.raises(TopologyError):
            demand_aware_boot_config({}, 1, 1)
        with pytest.raises(TopologyError):
            demand_aware_boot_config({(0, 1): 1.0}, 4, 0)

    def test_out_of_range_pairs_ignored(self):
        cfg = demand_aware_boot_config({(0, 9): 1.0, (1, 2): 1.0}, 4, 1)
        cfg.validate(4, 1)
        assert (0, 9) not in cfg.circuits
        assert (1, 2) in cfg.circuits

    def test_unknown_initial_string_rejected(self):
        with pytest.raises(TopologyError):
            synthesize_program([{(0, 1): 1.0}], ocs(), initial="mesh")


class TestPlannerIntegration:
    def test_lookahead_is_a_policy_arm(self):
        assert POLICIES == ("static", "reconfigure", "lookahead")
        table = topology_plan_table(ocs(reconfiguration_delay=1e-4),
                                    Workload(data_bytes=1 << 16, name="wl"))
        by_policy = {}
        for plan in table:
            by_policy.setdefault(plan.policy, {})[plan.algorithm] = plan
        assert set(by_policy) == set(POLICIES)
        for alg, look in by_policy["lookahead"].items():
            reco = by_policy["reconfigure"][alg]
            assert look.predicted_time <= reco.predicted_time

    def test_lookahead_only_planning(self):
        plan = plan_topology(ocs(reconfiguration_delay=1e-4), WL,
                             policies=("lookahead",))
        assert plan.policy == "lookahead"

    def test_serving_wrht_arm_runs_on_ocs(self):
        from repro.serving.engine import ServingEngine
        eng = ServingEngine(substrate_name="ocs-reconfig", capacity=2 * N)
        sched = eng._collective_schedule("wrht", N, float(1 << 20))
        assert sched.num_steps > 0
        # memoized: the co-planner runs once per (width, bytes) key
        assert eng._collective_schedule("wrht", N, float(1 << 20)) is sched
