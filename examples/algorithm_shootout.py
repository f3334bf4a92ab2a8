#!/usr/bin/env python3
"""Algorithm shoot-out: full-fidelity execution timelines side by side.

Runs every implemented all-reduce — Wrht (plain and pipelined), O-Ring,
hierarchical ring on the optical rack; E-Ring and RD on the electrical
network — at full simulation fidelity (real per-step wavelength
assignment), then prints Gantt timelines and a ranked comparison.

Run:  python examples/algorithm_shootout.py
"""

from repro import ElectricalSystem, OpticalRingSystem, Workload, units
from repro.analysis.timeline import compare_timelines, render_timeline
from repro.collectives import (WrhtParameters, generate_hierarchical_ring,
                               generate_recursive_doubling,
                               generate_ring_allreduce, generate_wrht,
                               generate_wrht_pipelined)
from repro.core.substrates import ElectricalSubstrate, OpticalRingSubstrate

N = 64
WAVELENGTHS = 32
PAYLOAD = Workload(data_bytes=100 * units.MB, name="gradients")


def main() -> None:
    optical = OpticalRingSystem(num_nodes=N, num_wavelengths=WAVELENGTHS)
    electrical = ElectricalSystem(num_nodes=N)

    params = WrhtParameters(num_nodes=N, group_size=3,
                            num_wavelengths=WAVELENGTHS,
                            alltoall_threshold=3)
    wrht, _ = generate_wrht(params)
    wrht_piped, _ = generate_wrht_pipelined(params, num_chunks=4)

    reports = [
        OpticalRingSubstrate(optical).execute(wrht, PAYLOAD),
        OpticalRingSubstrate(optical).execute(wrht_piped, PAYLOAD),
        OpticalRingSubstrate(optical, striping="off").execute(
            generate_ring_allreduce(N), PAYLOAD),
        OpticalRingSubstrate(optical, striping="off").execute(
            generate_hierarchical_ring(N, 8), PAYLOAD),
        ElectricalSubstrate(electrical.with_(topology="ring")).execute(
            generate_ring_allreduce(N), PAYLOAD),
        ElectricalSubstrate(electrical).execute(
            generate_recursive_doubling(N), PAYLOAD),
    ]

    print(f"All-reduce shoot-out: {units.fmt_bytes(PAYLOAD.data_bytes)} "
          f"across {N} nodes "
          f"(optical: {WAVELENGTHS} wavelengths x "
          f"{units.fmt_rate(optical.wavelength_rate)})\n")
    print(compare_timelines(reports))

    print("\n--- Wrht timeline (every step retunes, stripes wide) ---")
    print(render_timeline(reports[0]))

    print("\n--- Pipelined Wrht timeline (4 chunks) ---")
    print(render_timeline(reports[1]))


if __name__ == "__main__":
    main()
