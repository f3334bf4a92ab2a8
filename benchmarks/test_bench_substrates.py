"""EXT-S — substrate registry: RWA memoization and batch execution.

Two records:

* the planner-heavy path — simulate-fidelity ``plan_wrht`` sweeps
  ``m x variant`` candidates on one substrate; the RWA cache removes
  the repeated per-step wavelength assignments (the refactor's target
  speedup, printed as a cached/uncached ratio);
* the registry sweep — one pinned ring all-reduce on every registered
  substrate (the table the torus extension adds a row to).
"""

import time

import pytest

from ring_references import UncachedRing

from repro import units
from repro.analysis.ascii_plot import simple_table
from repro.analysis.sweeps import substrate_sweep
from repro.config import OpticalRingSystem, Workload
from repro.core.planner import plan_wrht
from repro.core.substrates import OpticalRingSubstrate


def test_simulated_planning_cache_speedup(once):
    """Simulate-fidelity planning, RWA cache on vs off (N=32, w=16)."""
    system = OpticalRingSystem(num_nodes=32, num_wavelengths=16)
    wl = Workload(data_bytes=64 * units.MB)

    def plan_with(cache):
        sub = (OpticalRingSubstrate if cache else UncachedRing)(system)
        t0 = time.perf_counter()
        plan = plan_wrht(system, wl, fidelity="simulate", substrate=sub)
        return time.perf_counter() - t0, plan, sub

    def run():
        plan_with(True)   # warm both code paths
        plan_with(False)
        # Best-of-2 per mode guards the assertion against scheduler
        # noise on loaded CI runners.
        on = [plan_with(True) for _ in range(2)]
        off = [plan_with(False) for _ in range(2)]
        t_on, plan_on, sub = min(on, key=lambda r: r[0])
        t_off, plan_off, _ = min(off, key=lambda r: r[0])
        return t_on, t_off, plan_on, plan_off, sub.rwa_cache_info()

    t_on, t_off, plan_on, plan_off, info = once(run)
    print()
    print(simple_table(
        ["rwa cache", "plan time", "m", "variant", "hit rate"],
        [("on", f"{t_on * 1e3:.1f} ms", plan_on.group_size,
          plan_on.variant, f"{info.hit_rate:.0%}"),
         ("off", f"{t_off * 1e3:.1f} ms", plan_off.group_size,
          plan_off.variant, "-")],
        title="EXT-S2: simulate-fidelity plan_wrht, cached vs cold "
              f"(speedup {t_off / t_on:.2f}x)"))
    assert plan_on.predicted_time == plan_off.predicted_time
    assert t_on < t_off


def test_substrate_registry_sweep(once):
    """Every registered substrate on one ring all-reduce (N=16)."""
    rows = once(substrate_sweep, 16, Workload(data_bytes=10 * units.MB))
    print()
    print(simple_table(
        ["substrate", "kind", "time", "steps"],
        [(r.substrate, r.kind, units.fmt_time(r.time), r.steps)
         for r in rows],
        title="EXT-S1: ring all-reduce across registered substrates "
              "(N=16, 10 MB)"))
    assert all(r.time > 0 for r in rows)


@pytest.mark.parametrize("name", ["optical-ring", "electrical-ring",
                                  "electrical-switch", "optical-torus"])
def test_substrate_execution_speed(benchmark, name):
    """Micro-benchmark: warm-substrate execution of a 16-node ring."""
    from repro.collectives.ring_allreduce import generate_ring_allreduce
    from repro.core.substrates import get_substrate

    sub = get_substrate(name)
    sched = generate_ring_allreduce(16)
    wl = Workload(data_bytes=10 * units.MB)
    sub.execute(sched, wl)  # build the network outside the timer

    report = benchmark(sub.execute, sched, wl)
    assert report.num_steps == 30
