"""EXT-R — reconfigurable OCS fabric: reconfiguration-delay ablation.

Sweeps the OCS reconfiguration delay from 0 (an ideal, infinitely agile
switch) through microsecond-class prototypes up to 10 ms (MEMS-class
mirrors) and, at each point, co-plans (collective algorithm x
reconfiguration policy) on a 16-node fabric moving a 64 MB gradient —
the documented workload for the acceptance claims:

* at small delays the co-planner's reconfiguring plan beats the best
  *static-ring* plan — dramatically on the latency-bound small-tensor
  workload (fewer, direct-circuit steps vs 2(N-1) neighbour hops), and
  marginally on the bandwidth-bound gradient workload (both shapes are
  bandwidth-optimal; only overheads differ);
* at ``delay = inf`` the fabric degrades to its static boot topology
  and the co-planner's answer coincides with the static plan exactly.
"""

import pytest

import repro.core.substrates.reconfigurable as ocs_substrate
import repro.topology.program as ocs_program
from repro import units
from repro.analysis.ascii_plot import simple_table
from repro.config import Workload, default_ocs
from repro.core.substrates import clear_substrate_pool
from repro.core.topoplan import plan_topology, topology_plan_table

NUM_NODES = 16
#: The documented ablation workloads on a 16-node fabric: a 64 KB
#: latency-bound small-tensor all-reduce (where topology co-planning
#: wins big) and a 64 MB ResNet-50-class fp32 gradient exchange (where
#: every bandwidth-optimal shape ties and only overheads differ).
WORKLOADS = (Workload(data_bytes=64 * units.KB, name="tensor-64KB"),
             Workload(data_bytes=64 * units.MB, name="grads-64MB"))

DELAYS = (0.0, 1 * units.USEC, 10 * units.USEC, 100 * units.USEC,
          1 * units.MSEC, 10 * units.MSEC, float("inf"))


def _best_static(system, workload):
    plans = [p for p in topology_plan_table(system, workload)
             if p.policy == "static"]
    return min(plans, key=lambda p: p.predicted_time)


@pytest.mark.parametrize("workload", WORKLOADS,
                         ids=[w.name for w in WORKLOADS])
def test_reconfiguration_delay_ablation(once, workload):
    """Co-planned vs best-static time as the switch slows down."""

    def run():
        rows = []
        for delay in DELAYS:
            system = default_ocs(NUM_NODES, reconfiguration_delay=delay)
            best = plan_topology(system, workload)
            static = _best_static(system, workload)
            rows.append((delay, best, static))
        return rows

    rows = once(run)
    print()
    print(simple_table(
        ["delay", "best plan", "time", "best static", "speedup"],
        [("inf" if d == float("inf") else units.fmt_time(d),
          f"{b.algorithm} ({b.policy}, {b.num_reconfigurations} reconf)",
          units.fmt_time(b.predicted_time),
          units.fmt_time(s.predicted_time),
          f"{s.predicted_time / b.predicted_time:.2f}x")
         for d, b, s in rows],
        title=f"EXT-R1 reconfiguration-delay ablation "
              f"(N={NUM_NODES}, {workload.name})"))

    # The acceptance claims, pinned on the documented workloads:
    for delay, best, static in rows:
        assert best.predicted_time <= static.predicted_time * (1 + 1e-12)
    ideal, ideal_static = rows[0][1], rows[0][2]
    # An agile switch reconfigures — per step, or via the lookahead
    # program, which can strictly beat per-step rounds even at delay 0
    # by installing a union config that serves a multi-degree step's
    # pairs concurrently where decomposition rounds serialize.
    assert ideal.policy in ("reconfigure", "lookahead")
    assert ideal.predicted_time < ideal_static.predicted_time  # strict win
    if workload.name == "tensor-64KB":
        # The headline co-planning win: an agile OCS serves the
        # latency-bound all-reduce >1.5x faster than any static plan.
        assert ideal_static.predicted_time > 1.5 * ideal.predicted_time
    frozen_best, frozen_static = rows[-1][1], rows[-1][2]
    assert frozen_best.policy == "static"
    assert frozen_best.predicted_time == frozen_static.predicted_time
    assert frozen_best.num_reconfigurations == 0


def test_decomposition_modes_agree_on_matchings(once, monkeypatch):
    """Matching-shaped demands need one round under either algorithm, so
    the co-planned times coincide; they only diverge on demands whose
    greedy first-fit overshoots the degree bound.  The greedy arm
    patches the size limit to 0 (every step greedy) and the step-cache
    admission bound to 0 (its pooled instances memoize nothing), and
    each arm starts from an empty substrate pool."""
    system = default_ocs(NUM_NODES)

    def plan(mode):
        clear_substrate_pool()
        if mode == "greedy":
            monkeypatch.setattr(ocs_program,
                                "OPTIMAL_DECOMPOSITION_LIMIT", 0)
            monkeypatch.setattr(ocs_substrate,
                                "DEFAULT_STEP_CACHE_MAX_PAIRS", 0)
        try:
            return plan_topology(system, WORKLOADS[-1])
        finally:
            monkeypatch.undo()
            clear_substrate_pool()

    def run():
        return {mode: plan(mode) for mode in ("greedy", "optimal")}

    plans = once(run)
    print()
    for mode, plan in plans.items():
        print(f"{mode:>8}: {plan.algorithm} ({plan.policy}) "
              f"{units.fmt_time(plan.predicted_time)}")
    greedy, optimal = plans["greedy"], plans["optimal"]
    assert greedy.predicted_time == optimal.predicted_time
    assert (greedy.algorithm, greedy.policy) == \
        (optimal.algorithm, optimal.policy)
