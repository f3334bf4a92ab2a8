"""Fault-path benchmarks (CI-gated, BENCH_faults.json).

Two claims the fault subsystem makes:

* **degraded repair pays** — when a wavelength drops mid-run, the
  incremental RWA treats the loss as churn and patches the surviving
  colouring forward step by step instead of re-solving every step from
  scratch under the mask.  The gated ``fault_repair_vs_resolve``
  section compares the two on the same degraded run — identical
  reports asserted first, then the wall-clock ratio recorded (both
  paths slow down together on a slow CI host, so the ratio is
  machine-independent);
* **retrying serving loses nothing** — a thousand-job Poisson stream
  with seeded link/node failures completes every job: each one either
  finishes (possibly after restarts) or is failed out after bounded
  retries, and capacity conservation holds throughout.
"""

from conftest import (BENCH_FAULTS_JSON, best_time as _time,
                      interleaved_best_times, record_bench as _record)
from ring_references import UncachedFullResolveRing, UncachedRing

from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload, default_optical
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.serving import RetryPolicy, ServingEngine, poisson_traffic

#: The degraded collective: a 32-node ring all-reduce (62 steps) that
#: loses wavelength 0 at t=0 and runs the whole schedule under the mask.
NODES = 32
WORKLOAD = Workload(data_bytes=1 << 26)
SYSTEM = default_optical(NODES)
SCHEDULE = generate_ring_allreduce(NODES)
LOSS = FaultPlan.of([FaultEvent(time=0.0, kind=FaultKind.WAVELENGTH_DOWN,
                                wavelength=0)])


def _degraded_run(ring):
    sub = ring(SYSTEM)
    return sub.execute_with_faults(SCHEDULE, WORKLOAD, LOSS), sub


def test_bench_fault_repair_vs_resolve(once):
    """Delta-patched degraded RWA vs a full re-solve per masked step.

    Both arms keep the step memos out of the way (every step is
    assigned afresh), so the ratio is the delta path's alone.  Folds the
    ``fault_repair_vs_resolve`` section into ``BENCH_faults.json`` — a
    CI-gated summary (see ``check_bench_regression.py``).
    """

    def resolve():
        return _degraded_run(UncachedFullResolveRing)[0]

    def repair():
        return _degraded_run(UncachedRing)[0]

    def run():
        want = resolve()
        got, sub = _degraded_run(UncachedRing)
        # Patching under the mask must not change answers.
        assert got.report.steps == want.report.steps
        assert got.report.total_time == want.report.total_time
        assert sub.delta_patched > 0      # the fast path actually ran
        assert sub.delta_fallbacks == 0   # and never fell off it
        t_resolve, t_repair = interleaved_best_times([resolve, repair], 3)
        return got, sub, t_resolve, t_repair

    got, sub, t_resolve, t_repair = once(run)
    speedup = t_resolve / t_repair
    print(f"\nfault repair vs resolve (N={NODES}, "
          f"{len(got.report.steps)} degraded steps, wavelength 0 lost): "
          f"full re-solve {t_resolve*1e3:.1f} ms, delta repair "
          f"{t_repair*1e3:.1f} ms -> {speedup:.2f}x "
          f"({sub.delta_patched} patches)")
    _record("fault_repair_vs_resolve", {
        "nodes": NODES, "steps": len(got.report.steps),
        "degraded_steps": len(got.outcome.degraded_steps),
        "patches": sub.delta_patched,
        "reference_s": t_resolve, "engine_s": t_repair,
        "speedup": speedup,
    }, path=BENCH_FAULTS_JSON, benchmark="faults")
    assert len(got.outcome.degraded_steps) == len(got.report.steps)
    assert speedup >= 2.0


def test_bench_fault_serving_stream(once):
    """1000 jobs under seeded link/node failures: nothing lost."""
    capacity = 32
    jobs = poisson_traffic(num_jobs=1000, arrival_rate=400.0, seed=0,
                           node_choices=(4, 8))
    plan = FaultPlan.poisson(duration=10.0, num_nodes=capacity, seed=1,
                             link_rate=2.0, node_rate=1.0,
                             mean_repair=0.02)

    def run():
        engine = ServingEngine(capacity=capacity)
        t0 = _time(lambda: engine.run(
            jobs, faults=plan,
            retry=RetryPolicy(max_retries=8, backoff=1e-4)), 1)
        rep = engine.run(jobs, faults=plan,
                         retry=RetryPolicy(max_retries=8, backoff=1e-4))
        return rep, t0

    rep, wall = once(run)
    completed = {r.job.job_id for r in rep.records}
    failed = {j.job_id for j in rep.failed_jobs}
    assert completed | failed == {j.job_id for j in jobs}  # nothing lost
    assert not completed & failed
    print(f"\nfaulty serving stream (1000 jobs, {capacity} nodes): "
          f"{len(completed)} done / {len(failed)} failed, "
          f"{rep.preemptions} kills, {rep.retries} retries, "
          f"availability {rep.availability:.2%}, {wall:.2f} s wall")
    _record("fault_serving_stream", {
        "jobs": 1000, "capacity": capacity,
        "completed": len(completed), "failed": len(failed),
        "preemptions": rep.preemptions, "retries": rep.retries,
        "availability": rep.availability,
        "fault_events": rep.fault_events_applied,
        "wall_s": wall,
    }, path=BENCH_FAULTS_JSON, benchmark="faults")
    assert rep.fault_events_applied > 0
