"""OCS program-synthesis benchmarks (CI-gated, BENCH_ocs.json).

Two claims the lookahead/delta layer makes:

* **lookahead amortises reconfigurations** — on a reconfiguration-heavy
  schedule (64-node recursive doubling: six shrinking-distance
  matchings, each forcing the greedy policy to re-match the switch) a
  4-port fabric lets the DP install unions of consecutive matchings and
  serve several steps per paid delay.  The gated
  ``ocs_lookahead_vs_greedy`` section records the *simulated total
  time* ratio — a pure model quantity, machine-independent — and pins
  the dominance guarantee (lookahead never slower) on top;
* **delta decomposition patches churn** — a 9-step workload whose
  demand matrix only churns at the tail re-uses the previous König
  colouring and re-colours just the churned suffix.  The gated
  ``ocs_delta_decompose`` section compares CPU time against a
  from-scratch ``decompose_demand`` per step (both paths slow down
  together on a slow CI host, so the ratio is machine-independent),
  with bit-for-bit parity asserted first.
"""

import time

from conftest import (BENCH_OCS_JSON, interleaved_best_times,
                      record_bench as _record)

from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.config import Workload, default_ocs
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.topology.program import DecompositionDelta, decompose_demand

# -- lookahead vs greedy --------------------------------------------------
#: 64-node recursive doubling at a moderate (1 ms) reconfiguration
#: delay: five of the six matchings are off the boot ring, so the
#: greedy policy pays the delay per step; four ports let the DP install
#: port-feasible unions of consecutive matchings instead.
NODES = 64
DELAY = 1e-3
SYSTEM = default_ocs(NODES).with_(reconfiguration_delay=DELAY,
                                  ports_per_node=4)
SCHEDULE = generate_recursive_doubling(NODES)
WORKLOAD = Workload(data_bytes=1 << 20)

# -- delta decomposition churn workload -----------------------------------
#: 24 layered ring-shift matchings over 64 nodes (1536 pairs — inside
#: the optimal-König auto threshold); each of the following 8 steps
#: churns only the tail of the demand list, the delta layer's home
#: turf (steps in a training schedule repeat with small edits).
DNODES = 64
LAYERS = 24
PORTS = 2


def _churn_steps():
    base = [(i, (i + s) % DNODES)
            for s in range(1, LAYERS + 1) for i in range(DNODES)]
    steps = [list(base)]
    for k in range(1, 9):
        cur = list(steps[-1])
        del cur[-(8 + k):]
        shift = LAYERS + 6 + k
        cur.extend((i, (i + shift) % DNODES) for i in range(8 + k))
        steps.append(cur)
    return steps


def test_bench_lookahead_vs_greedy(once):
    """Whole-schedule DP vs the myopic per-step policy.

    Folds the ``ocs_lookahead_vs_greedy`` section into
    ``BENCH_ocs.json`` — a CI-gated summary (see
    ``check_bench_regression.py``).
    """

    def run():
        greedy = OCSReconfigurableSubstrate(SYSTEM).execute(SCHEDULE,
                                                            WORKLOAD)
        sub = OCSReconfigurableSubstrate(SYSTEM, lookahead=True)
        look = sub.execute(SCHEDULE, WORKLOAD)
        return greedy, look, sub

    greedy, look, sub = once(run)
    # The pinned guarantee: never worse, and here strictly better.
    assert look.total_time <= greedy.total_time
    speedup = greedy.total_time / look.total_time
    assert speedup >= 1.5
    saved = dict(sub.describe().parameters)["lookahead_reconfigs_saved"]
    assert saved > 0
    print(f"\nlookahead vs greedy (N={NODES}, recursive doubling, "
          f"delay={DELAY*1e3:.0f} ms, 4 ports): greedy "
          f"{greedy.total_time*1e3:.3f} ms, lookahead "
          f"{look.total_time*1e3:.3f} ms -> {speedup:.2f}x "
          f"({saved} reconfigurations saved)")
    _record("ocs_lookahead_vs_greedy", {
        "nodes": NODES, "delay_s": DELAY,
        "ports": SYSTEM.ports_per_node,
        "greedy_total_s": greedy.total_time,
        "lookahead_total_s": look.total_time,
        "reconfigs_saved": saved,
        "speedup": speedup,
    }, path=BENCH_OCS_JSON, benchmark="ocs-synthesis")


def test_bench_delta_decompose(once):
    """Delta-patched decomposition vs a from-scratch solve per step.

    Folds the ``ocs_delta_decompose`` section into ``BENCH_ocs.json``
    — a CI-gated summary (see ``check_bench_regression.py``).
    """
    steps = _churn_steps()

    def scratch():
        return [decompose_demand(tuple(s), PORTS) for s in steps]

    def patched():
        delta = DecompositionDelta()
        return [delta.solve(s, PORTS) for s in steps], delta

    def run():
        want = scratch()
        got, delta = patched()
        # Patching must be an exact computational shortcut.
        assert got == want
        assert delta.patched == len(steps) - 1  # cold solve, then patches
        assert delta.fallbacks == 0
        # Short single-process arms: CPU time over more rounds keeps
        # the ratio steady when other processes load the host.
        t_scratch, t_delta = interleaved_best_times(
            [scratch, lambda: patched()[0]], 7, clock=time.process_time)
        return delta, t_scratch, t_delta

    delta, t_scratch, t_delta = once(run)
    speedup = t_scratch / t_delta
    assert speedup >= 3.0
    print(f"\ndelta decompose ({len(steps)}-step churn, "
          f"{LAYERS * DNODES} pairs, {PORTS} ports): scratch "
          f"{t_scratch*1e3:.1f} ms, delta {t_delta*1e3:.1f} ms -> "
          f"{speedup:.2f}x ({delta.patched} patches)")
    _record("ocs_delta_decompose", {
        "nodes": DNODES, "layers": LAYERS, "steps": len(steps),
        "pairs": LAYERS * DNODES, "patches": delta.patched,
        "reference_s": t_scratch, "engine_s": t_delta,
        "speedup": speedup,
    }, path=BENCH_OCS_JSON, benchmark="ocs-synthesis")
