"""EXT-A7..A10 — extension experiments beyond the poster's figure.

* A7 energy — joules per all-reduce on the optical rack;
* A8 pipelining — chunked pipelined Wrht (the natural next optimisation);
* A9 hierarchical ring — the strongest non-WDM tree-ish baseline;
* A10 electrical congestion — RD under fat-tree oversubscription,
  exercising the fluid max-min model beyond single-bottleneck cases.
"""

from repro import units
from repro.analysis.ascii_plot import simple_table
from repro.analysis.sweeps import pipelining_sweep
from repro.collectives import (WrhtParameters, generate_hierarchical_ring,
                               generate_ring_allreduce, generate_wrht)
from repro.collectives.hierarchical_ring import hierarchical_ring_step_count
from repro.config import OpticalRingSystem, Workload
from repro.core.cost_model import wrht_time_from_schedule
from repro.core.substrates import OpticalRingSubstrate
from repro.models.catalog import paper_workload
from repro.optical.power import energy_of_execution
from repro.simulation.fluid import FluidNetworkSimulator
from repro.topology import FatTree


def test_energy_per_allreduce(once):
    """EXT-A7: time and energy of each optical schedule (N=128, VGG16)."""

    def run():
        n = 128
        system = OpticalRingSystem(num_nodes=n)
        wl = paper_workload("vgg16")
        rows = []
        oring = generate_ring_allreduce(n)
        rep = OpticalRingSubstrate(system, striping="off").execute(oring, wl)
        rows.append(("o-ring", rep.total_time,
                     energy_of_execution(oring, rep, wl)))
        wrht, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=3, num_wavelengths=64,
            alltoall_threshold=3))
        rep = OpticalRingSubstrate(system).execute(wrht, wl)
        rows.append(("wrht", rep.total_time,
                     energy_of_execution(wrht, rep, wl)))
        return rows

    rows = once(run)
    print()
    print(simple_table(
        ["schedule", "time", "energy [J]", "mean power [W]"],
        [(name, units.fmt_time(t), f"{e:.3f}", f"{e / t:.1f}")
         for name, t, e in rows],
        title="EXT-A7: energy per all-reduce (VGG16, N=128)"))
    t = {name: (time, e) for name, time, e in rows}
    # Wrht: much faster, comparable energy, higher instantaneous power.
    assert t["wrht"][0] * 5 < t["o-ring"][0]
    assert t["wrht"][1] < 2.5 * t["o-ring"][1]


def test_pipelined_wrht_sweep(once):
    """EXT-A8: chunk-count sweep of pipelined Wrht (N=256, VGG16)."""

    def run():
        return pipelining_sweep(256, paper_workload("vgg16"),
                                chunk_counts=(1, 2, 4, 8, 16, 32))

    rows = once(run)
    print()
    print(simple_table(
        ["chunks", "steps", "min striping", "time"],
        [(r.num_chunks, r.steps, r.min_striping, units.fmt_time(r.time))
         for r in rows],
        title="EXT-A8: pipelined Wrht (VGG16, N=256, m=3, w=64)"))
    base = rows[0].time
    best = min(r.time for r in rows)
    print(f"best pipelining gain: {base / best:.2f}x at "
          f"C={min(rows, key=lambda r: r.time).num_chunks}")
    # pipelining must never help by magic (>L x) nor hurt catastrophically
    assert best <= base * (1 + 1e-9)
    assert max(r.time for r in rows) < base * 4


def test_hierarchical_ring_baseline(once):
    """EXT-A9: hierarchical ring vs O-Ring vs Wrht on the optical rack."""

    def run():
        n = 256
        system = OpticalRingSystem(num_nodes=n)
        wl = paper_workload("resnet50")
        out = {}
        for g in (4, 16, 64):
            sched = generate_hierarchical_ring(n, g)
            detail = wrht_time_from_schedule(
                sched, system.with_(allow_striping=False), wl)
            out[f"hier-ring g={g}"] = (detail.total_time,
                                       sched.num_steps)
        oring = generate_ring_allreduce(n)
        rep = OpticalRingSubstrate(system, striping="off").execute(oring, wl)
        out["o-ring"] = (rep.total_time, oring.num_steps)
        wrht, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=3, num_wavelengths=64,
            alltoall_threshold=3))
        repw = OpticalRingSubstrate(system).execute(wrht, wl)
        out["wrht"] = (repw.total_time, wrht.num_steps)
        return out

    out = once(run)
    print()
    print(simple_table(
        ["algorithm", "steps", "time"],
        [(k, s, units.fmt_time(t)) for k, (t, s) in out.items()],
        title="EXT-A9: hierarchy without WDM-awareness "
              "(ResNet50, N=256, 1 wavelength/flow)"))
    # fewer steps than the flat ring...
    assert hierarchical_ring_step_count(256, 16) < 2 * 255
    # ...but without striping its full-vector local phases keep it far
    # from Wrht: tree-ness alone is not the win, WDM exploitation is.
    wrht_t = out["wrht"][0]
    for k, (t, _) in out.items():
        if k.startswith("hier"):
            assert t > 3 * wrht_t


def test_fat_tree_oversubscription(once):
    """EXT-A10: one RD exchange step under fat-tree oversubscription."""

    def run():
        rows = []
        n, per_edge = 64, 8
        size = 100 * units.MB
        # rank i exchanges with i XOR 32: all traffic crosses the core.
        pairs = [(i, i ^ 32, size) for i in range(n)]
        for ovs in (1.0, 2.0, 4.0, 8.0):
            ft = FatTree(n, 100 * units.GBPS, hosts_per_edge=per_edge,
                         oversubscription=ovs)
            sim = FluidNetworkSimulator(ft)
            rows.append((ovs, sim.step_time(pairs)))
        return rows

    rows = once(run)
    print()
    print(simple_table(
        ["oversubscription", "RD exchange step"],
        [(f"{o:.0f}:1", units.fmt_time(t)) for o, t in rows],
        title="EXT-A10: cross-edge RD step on an oversubscribed "
              "fat-tree (N=64)"))
    base = rows[0][1]
    for ovs, t in rows[1:]:
        # congestion scales the step by exactly the oversubscription
        assert t / base == __import__("pytest").approx(ovs, rel=1e-6)
