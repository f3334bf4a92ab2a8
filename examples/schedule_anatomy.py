#!/usr/bin/env python3
"""Anatomy of a Wrht schedule: groups, wavelengths, and the RWA at work.

Walks a small example (N=27, m=3, w=8) through every layer of the
stack: the hierarchical grouping of §2, the generated schedule, the
per-step wavelength demand vs the paper's ⌊m/2⌋ bound, the real
First-Fit assignment on the ring, and the semantic proof that the
schedule is an all-reduce.

Run:  python examples/schedule_anatomy.py
"""

from repro import OpticalRingSystem, Workload, units
from repro.collectives import WrhtParameters, generate_wrht, \
    verify_allreduce
from repro.collectives.analysis import (describe_schedule,
                                        schedule_wavelength_demand)
from repro.core.substrates import OpticalRingSubstrate
from repro.optical import (AssignmentPolicy, OpticalRingNetwork,
                           TransferRequest, assign_wavelengths)
from repro.topology.ring import RingTopology

N, M, W = 27, 3, 8


def main() -> None:
    params = WrhtParameters(num_nodes=N, group_size=M, num_wavelengths=W,
                            alltoall_threshold=M)
    schedule, info = generate_wrht(params)

    print(f"Wrht on N={N}, m={M}, w={W}")
    print(f"steps: {schedule.num_steps} "
          f"(paper bound 2*ceil(log_{M} {N}) - 1 = "
          f"{2 * 3 - 1})\n")

    print("Hierarchical grouping (reduce stage):")
    for lvl, level in enumerate(info.levels):
        reps = ", ".join(str(r) for r in level.representatives)
        print(f"  level {lvl}: {len(level.groups)} groups -> "
              f"representatives [{reps}]")
    if info.used_alltoall:
        print(f"  all-to-all among {list(info.alltoall_participants)} "
              f"(everyone then holds the sum)\n")

    ring = RingTopology(N, capacity=1.0)
    demands = schedule_wavelength_demand(ring, schedule)
    print(f"Per-step wavelength demand: {demands} "
          f"(paper's tree bound: floor(m/2) = {M // 2})\n")

    print(describe_schedule(schedule, ring, max_steps=6))

    # Real RWA for the first step.
    system = OpticalRingSystem(num_nodes=N, num_wavelengths=W)
    net = OpticalRingNetwork(system)
    step0 = schedule.steps[0]
    requests = [TransferRequest(t.src, t.dst) for t in step0]
    rwa = assign_wavelengths(net, requests, AssignmentPolicy.FIRST_FIT)
    print(f"\nFirst-Fit RWA of step 0: {len(requests)} transfers, "
          f"spectrum span {rwa.spectrum_span} wavelength(s) "
          f"(reuse across {len(info.levels[0].groups)} disjoint groups)")

    # Semantic proof + timed execution.
    verify_allreduce(schedule, elements_per_chunk=2)
    print("Semantic verification: PASS (every node ends with the exact "
          "element-wise sum)")

    report = OpticalRingSubstrate(system).execute(
        schedule, Workload(data_bytes=100 * units.MB))
    print(f"\nSimulated execution of 100 MB gradients: "
          f"{units.fmt_time(report.total_time)}")
    for s in report.steps:
        print(f"  step {s.index}: {units.fmt_time(s.duration):>12} "
              f"(striping x{s.striping}, span {s.spectrum_span}, "
              f"tuning {units.fmt_time(s.tuning_time)})")


if __name__ == "__main__":
    main()
