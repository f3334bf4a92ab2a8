#!/usr/bin/env python3
"""Fault-tolerant fabric: deterministic failures, degraded routes, retries.

Three escalating demonstrations of the ``repro.faults`` subsystem:

1. **Degraded collective** — one ring all-reduce executed through a
   seeded fault plan: a fiber cut mid-run forces rerouting on the
   surviving arc, a wavelength loss shrinks the WDM budget (the
   incremental RWA treats it as churn), and the run converges back to
   fault-free step timings once the faults heal.  The empty plan is a
   bit-for-bit no-op — the keystone guarantee, asserted here.
2. **Retrying serving** — the same seeded job mix served twice, clean
   vs under injected link cuts and node crashes: killed jobs restart
   with exponential backoff, nothing is lost (completed + failed ==
   submitted), and availability/preemption counters quantify the hit.
3. **Fault-rate sweep** — EXT-F1: goodput and JCT tail vs fault rate,
   showing graceful degradation instead of a cliff.

Everything is seeded: run it twice, get the same tables.

Run:  python examples/fault_tolerance.py
"""

from repro import units
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.serving import RetryPolicy, ServingEngine, poisson_traffic

CAPACITY = 16
NUM_JOBS = 30
RATE = 100.0


def degraded_collective() -> None:
    schedule = generate_ring_allreduce(8)
    workload = Workload(data_bytes=64 * units.MB)
    substrate = OpticalRingSubstrate()
    healthy = substrate.execute(schedule, workload)

    # The empty plan is the documented bit-for-bit no-op.
    noop = substrate.execute_with_faults(schedule, workload, FaultPlan.none())
    assert noop.report.steps == healthy.steps

    step0 = healthy.steps[0].duration
    plan = FaultPlan.of([
        FaultEvent(time=0.0, kind=FaultKind.WAVELENGTH_DOWN, wavelength=0),
        FaultEvent(time=step0 * 0.5, kind=FaultKind.LINK_DOWN, link=(2, 3)),
        FaultEvent(time=step0 * 2.5, kind=FaultKind.LINK_UP, link=(2, 3)),
        FaultEvent(time=step0 * 4.5, kind=FaultKind.WAVELENGTH_UP,
                   wavelength=0),
    ])
    run = substrate.execute_with_faults(schedule, workload, plan)
    out = run.outcome
    print("degraded ring all-reduce (N=8, 64 MB):")
    print(f"  healthy total      : {units.fmt_time(healthy.total_time)}")
    print(f"  degraded total     : {units.fmt_time(run.report.total_time)}")
    print(f"  degraded steps     : {list(out.degraded_steps)} "
          f"of {len(run.report.steps)}")
    print(f"  repair overhead    : {units.fmt_time(out.repair_overhead)}")
    # After every fault heals the remaining steps match the healthy run.
    tail = run.report.steps[-1].duration - healthy.steps[-1].duration
    print(f"  post-repair drift  : {abs(tail):.3e} s (converged)")


def retrying_serving() -> None:
    jobs = poisson_traffic(num_jobs=NUM_JOBS, arrival_rate=RATE, seed=3,
                           node_choices=(4, 8))
    clean = ServingEngine(capacity=CAPACITY).run(jobs)
    plan = FaultPlan.poisson(duration=clean.makespan, num_nodes=CAPACITY,
                             seed=11, link_rate=3.0, node_rate=3.0,
                             mean_repair=0.05)
    faulty = ServingEngine(capacity=CAPACITY).run(
        jobs, faults=plan, retry=RetryPolicy(max_retries=4, backoff=1e-3))
    completed = {r.job.job_id for r in faulty.records}
    failed = {j.job_id for j in faulty.failed_jobs}
    assert completed | failed == {j.job_id for j in jobs}  # nothing lost
    print("retrying serving (same seeded mix, clean vs faulty):")
    print(f"  clean  : {clean.num_jobs} jobs in "
          f"{units.fmt_time(clean.makespan)}")
    print(f"  faulty : {faulty.num_jobs} done / {len(failed)} failed, "
          f"{faulty.preemptions} kills, {faulty.retries} retries, "
          f"availability {faulty.availability:.2%}, "
          f"{units.fmt_time(faulty.makespan)}")
    restarted = sum(1 for r in faulty.records if r.attempts)
    print(f"  restarted jobs that still finished: {restarted}")


def fault_rate_sweep() -> None:
    from repro.analysis.sweeps import fault_sweep

    rows = fault_sweep(capacity=CAPACITY, num_jobs=NUM_JOBS,
                       arrival_rate=RATE, fault_rates=(0.0, 4.0, 16.0),
                       seed=3)
    print("fault-rate sweep (EXT-F1):")
    for r in rows:
        print(f"  {r.fault_rate:5.1f} faults/s : "
              f"goodput {r.goodput_fraction:6.1%}  "
              f"jct p99 {units.fmt_time(r.jct_p99):>10}  "
              f"availability {r.availability:.2%}")


if __name__ == "__main__":
    degraded_collective()
    print()
    retrying_serving()
    print()
    fault_rate_sweep()
