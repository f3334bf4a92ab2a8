"""Strategy co-planning benchmark (CI-gated, BENCH_coplan.json).

The headline claim of the co-planner: on a multi-phase strategy
profile, searching (parallelization x collective x topology program)
*jointly* beats the best plan that fixes the topology up front.

The config: 16 nodes, AlexNet, strategies capped at tensor degree 4
(``max_tensor`` models the compute-side cap on intra-layer splitting —
without it pure TP trivially wins on communication alone, since
activations are orders of magnitude smaller than gradients).  The
``dp4+tp4`` profile moves ~5x fewer gradient bytes than pure DP (each
DP group all-reduces a quarter shard), but its strided DP groups are
congested on the static boot ring; only a reconfiguring fabric —
installing the strided ring circuits once and reusing them across all
gradient buckets via the lookahead DP — converts the byte reduction
into wall-clock.  The gated ``coplan_vs_best_fixed`` section records
the *simulated total time* ratio of the best fixed-topology (static)
cell over the co-planned best — a pure model quantity, machine-
independent.

The ungated ``coplan_scaling`` section is the cost curve of the
default search (``plan --strategy auto`` on ResNet-50) at 16, 32 and 64
nodes: wall seconds, simulated OCS steps, and fluid-engine lookups.
"""

import time

from conftest import BENCH_COPLAN_JSON, record_bench as _record

from repro.core.substrates import cache_stats, clear_substrate_pool
from repro.core.topoplan import strategy_plan_table
from repro.models.strategies import enumerate_strategies

NODES = 16
MODEL = "alexnet"
MAX_TENSOR = 4
#: Node counts and model of the co-plan scaling curve.
SCALING_NODES = (16, 32, 64)
SCALING_MODEL = "resnet50"


def _fluid_lookups():
    row = cache_stats().get("fluid", {})
    return sum(row.get(k, 0) for k in ("hits", "misses", "skipped"))


def test_bench_coplan_vs_best_fixed(once):
    """Joint search vs the best fixed-(strategy, topology) plan.

    Folds the ``coplan_vs_best_fixed`` section into
    ``BENCH_coplan.json`` — a CI-gated summary (see
    ``check_bench_regression.py``).
    """

    def run():
        return strategy_plan_table(
            NODES, MODEL,
            strategies=enumerate_strategies(NODES, max_tensor=MAX_TENSOR),
            rack_sizes=(), fidelity="simulate")

    table = once(run)
    fixed = [p for p in table if p.policy == "static"]
    assert fixed, "the grid must price every static cell"
    best_fixed = min(fixed, key=lambda p: p.predicted_time)
    best = min(table, key=lambda p: p.predicted_time)
    speedup = best_fixed.predicted_time / best.predicted_time

    # The acceptance pin: co-planning strictly beats every fixed plan,
    # by reconfiguring (a static winner would make the claim vacuous).
    assert best.policy in ("reconfigure", "lookahead")
    assert speedup >= 1.5
    # The winner exploits model parallelism, not just a better ring.
    assert best.strategy.tensor_parallel > 1

    print(f"\ncoplan vs best fixed (N={NODES}, {MODEL}, "
          f"max_tensor={MAX_TENSOR}): fixed {best_fixed.label} "
          f"{best_fixed.predicted_time*1e3:.3f} ms, co-planned "
          f"{best.label} {best.predicted_time*1e3:.3f} ms "
          f"-> {speedup:.2f}x")
    _record("coplan_vs_best_fixed", {
        "nodes": NODES, "model": MODEL, "max_tensor": MAX_TENSOR,
        "best_fixed": best_fixed.label,
        "best_fixed_total_s": best_fixed.predicted_time,
        "coplan": best.label,
        "coplan_total_s": best.predicted_time,
        "speedup": speedup,
    }, path=BENCH_COPLAN_JSON, benchmark="strategy-coplan")


def test_bench_coplan_scaling(once):
    """The default co-planning grid at 16, 32 and 64 nodes.

    Each run starts from an empty substrate pool (what one CLI call
    pays).  The planners price each distinct step matrix once per
    circuit configuration, so the fluid engine is asked far fewer times
    than steps are simulated — the count asserted at every N (wall time
    is recorded, not gated).
    """

    def run():
        out = []
        for n in SCALING_NODES:
            clear_substrate_pool()
            before = _fluid_lookups()
            t0 = time.perf_counter()
            table = strategy_plan_table(n, SCALING_MODEL)
            secs = time.perf_counter() - t0
            steps = sum(len(p.report.steps) for p in table
                        if p.report is not None)
            best = min(table, key=lambda p: p.predicted_time)
            out.append((n, secs, steps, _fluid_lookups() - before, best))
        return out

    rows = once(run)
    for n, secs, steps, lookups, best in rows:
        print(f"\ncoplan {SCALING_MODEL} N={n}: {secs:.2f} s wall, "
              f"{steps} simulated steps, {lookups} fluid lookups, "
              f"best {best.label} {best.predicted_time*1e3:.3f} ms")
    _record("coplan_scaling", {
        "model": SCALING_MODEL,
        "nodes": [r[0] for r in rows],
        "wall_s": [r[1] for r in rows],
        "simulated_steps": [r[2] for r in rows],
        "fluid_lookups": [r[3] for r in rows],
        "best": [r[4].label for r in rows],
        "best_total_s": [r[4].predicted_time for r in rows],
    }, path=BENCH_COPLAN_JSON, benchmark="strategy-coplan")
    for n, _, steps, lookups, _ in rows:
        assert 0 < lookups < steps, (n, lookups, steps)
