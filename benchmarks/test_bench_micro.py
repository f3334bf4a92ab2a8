"""EXT-A6 — simulator micro-benchmarks.

CPU-performance benches for the pieces that run inside sweeps: schedule
generation, the full optical executor (real RWA per step), the fluid
max-min solver, the semantic verifier, and the planner.  These are the
genuine pytest-benchmark targets (multiple rounds).
"""

import numpy as np

from repro import units
from repro.collectives import (WrhtParameters, generate_ring_allreduce,
                               generate_wrht, verify_allreduce)
from repro.config import ElectricalSystem, OpticalRingSystem, Workload
from repro.core.substrates import ElectricalSubstrate, OpticalRingSubstrate
from repro.core.cost_model import clear_wrht_summaries
from repro.core.planner import plan_wrht
from repro.models.catalog import paper_workload
from repro.simulation.flows import Flow, max_min_fair_rates

WL = Workload(data_bytes=100 * units.MB)


def test_generate_wrht_1024(benchmark):
    params = WrhtParameters(num_nodes=1024, group_size=3,
                            num_wavelengths=64, alltoall_threshold=3)
    sched, info = benchmark(generate_wrht, params)
    assert sched.num_steps == 13


def test_generate_ring_256(benchmark):
    sched = benchmark(generate_ring_allreduce, 256)
    assert sched.num_steps == 510


def test_optical_executor_wrht_1024(benchmark):
    """Full-fidelity Wrht execution (RWA every step) at paper scale."""
    system = OpticalRingSystem(num_nodes=1024)
    params = WrhtParameters(num_nodes=1024, group_size=3,
                            num_wavelengths=64, alltoall_threshold=3)
    sched, _ = generate_wrht(params)
    report = benchmark(
        lambda: OpticalRingSubstrate(system).execute(sched, WL))
    assert report.num_steps == 13
    assert report.peak_wavelength_demand() <= 64


def test_electrical_executor_rd_256(benchmark):
    from repro.collectives import generate_recursive_doubling
    system = ElectricalSystem(num_nodes=256)
    sched = generate_recursive_doubling(256)
    report = benchmark(
        lambda: ElectricalSubstrate(system).execute(sched, WL))
    assert report.num_steps == 8


def test_maxmin_solver_1000_flows(benchmark):
    rng = np.random.default_rng(0)
    links = {f"L{i}": float(rng.uniform(1, 10)) for i in range(200)}
    names = list(links)
    flows = []
    for j in range(1000):
        k = int(rng.integers(1, 5))
        path = tuple(rng.choice(names, size=k, replace=False))
        flows.append(Flow(src=0, dst=j + 1, size=1.0, path=path))
    rates = benchmark(max_min_fair_rates, flows, links)
    assert (rates > 0).all()


def test_verifier_wrht_256(benchmark):
    params = WrhtParameters(num_nodes=256, group_size=3,
                            num_wavelengths=64, alltoall_threshold=3)
    sched, _ = generate_wrht(params)
    benchmark(verify_allreduce, sched, 1)


def test_planner_paper_point(benchmark):
    """One cold Wrht planning pass (the unit of every Fig. 2 cell): the
    step-summary memo is emptied before each round, so every round
    derives the whole candidate sweep's summaries from the level
    structure and generates only the winner."""
    system = OpticalRingSystem(num_nodes=512)
    plan = benchmark.pedantic(plan_wrht,
                              args=(system, paper_workload("resnet50")),
                              setup=clear_wrht_summaries, rounds=5)
    assert plan.predicted_time > 0


def test_planner_paper_point_warm(benchmark):
    """A planning pass over a warm memo (another model at a planned
    scale): re-prices the summaries, materializes only the winner."""
    system = OpticalRingSystem(num_nodes=512)
    plan_wrht(system, paper_workload("vgg16"))  # fills the memo
    plan = benchmark(plan_wrht, system, paper_workload("resnet50"))
    assert plan.predicted_time > 0
