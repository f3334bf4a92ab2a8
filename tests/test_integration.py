"""End-to-end integration tests: the full stack on realistic scenarios."""

import numpy as np
import pytest

from repro import units
from repro.analysis.sweeps import pipelining_sweep
from repro.collectives import (WrhtParameters, generate_wrht,
                               verify_allreduce)
from repro.config import OpticalRingSystem, Workload
from repro.core.comparison import compare_algorithms
from repro.core.communicator import Communicator
from repro.core.planner import plan_wrht
from repro.core.substrates import OpticalRingSubstrate
from repro.models.catalog import get_model, paper_workload
from repro.models.gradients import bucketize_gradients, gradient_workload
from repro.optical.impairments import validate_schedule_reach
from repro.optical.power import energy_of_execution


class TestFullPipeline:
    """Plan -> verify -> execute (real RWA) -> physical checks."""

    @pytest.mark.parametrize("n,w", [(24, 8), (48, 16), (100, 32)])
    def test_plan_verify_execute_energy_reach(self, n, w):
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
        wl = Workload(data_bytes=20 * units.MB, name="itest")

        plan = plan_wrht(system, wl)
        # schedule is a provable all-reduce
        verify_allreduce(plan.schedule, elements_per_chunk=1)
        # executes within the wavelength budget, matching the prediction
        report = OpticalRingSubstrate(system).execute(plan.schedule, wl)
        assert report.peak_wavelength_demand() <= w
        assert report.total_time == pytest.approx(plan.predicted_time,
                                                  rel=1e-6)
        # physically realizable and energetically accounted
        assert validate_schedule_reach(plan.schedule, system) <= n // 2 + 1
        assert energy_of_execution(plan.schedule, report, wl) > 0

    def test_non_power_of_two_everything(self):
        """The full four-algorithm comparison at awkward N."""
        for n in (6, 12, 24):
            comp = compare_algorithms(
                n, Workload(data_bytes=5 * units.MB),
                fidelity="simulate")
            assert comp.time("wrht") < comp.time("o-ring")

    def test_minimal_wavelength_budget(self):
        """w=1 still plans and executes (m in {2,3}, no striping gain)."""
        system = OpticalRingSystem(num_nodes=9, num_wavelengths=1)
        wl = Workload(data_bytes=1 * units.MB)
        plan = plan_wrht(system, wl)
        assert plan.group_size in (2, 3)
        report = OpticalRingSubstrate(system).execute(plan.schedule, wl)
        assert report.peak_wavelength_demand() <= 1


class TestModelDrivenWorkflow:
    """From DNN catalog to communication decision."""

    def test_catalog_to_comparison(self):
        model = get_model("resnet50")
        wl = gradient_workload(model)
        comp = compare_algorithms(64, wl)
        assert comp.time("wrht") < min(comp.time("e-ring"),
                                       comp.time("rd"),
                                       comp.time("o-ring"))

    def test_bucketed_equals_whole_in_sum_of_bytes(self):
        model = get_model("googlenet")
        buckets = bucketize_gradients(model)
        assert sum(b.nbytes for b in buckets) == \
            gradient_workload(model).data_bytes

    def test_paper_workloads_all_win_at_128(self):
        for name in ("alexnet", "vgg16", "resnet50", "googlenet"):
            comp = compare_algorithms(128, paper_workload(name))
            assert comp.reduction_vs("o-ring") > 0.75


class TestDistributedTrainingLoop:
    """A miniature synchronous SGD loop over the Communicator."""

    def test_two_iterations_of_sgd(self):
        n, dim = 8, 16
        rng = np.random.default_rng(0)
        comm = Communicator(n)
        weights = [np.zeros(dim) for _ in range(n)]
        total_comm_time = 0.0
        for _ in range(2):
            grads = [rng.normal(size=dim) for _ in range(n)]
            out = comm.allreduce(grads, algorithm="wrht")
            total_comm_time += out.report.total_time
            mean_grad = out.data[0] / n
            weights = [w - 0.1 * mean_grad for w in weights]
        # replicas stay identical — the whole point of all-reduce
        for w in weights[1:]:
            np.testing.assert_allclose(w, weights[0])
        assert total_comm_time > 0

    def test_mixed_collectives_compose(self):
        n = 8
        comm = Communicator(n)
        data = [np.full(4, float(i)) for i in range(n)]
        summed = comm.reduce(data, root=0)
        redistributed = comm.broadcast(
            [summed.data[0] if r == 0 else np.zeros(4)
             for r in range(n)], root=0)
        expected = np.full(4, sum(range(n)), dtype=float)
        for arr in redistributed.data:
            np.testing.assert_allclose(arr, expected)


class TestPipeliningIntegration:
    def test_sweep_runs_and_single_chunk_matches_plain(self):
        wl = Workload(data_bytes=50 * units.MB)
        rows = pipelining_sweep(27, wl, chunk_counts=(1, 2, 4),
                                group_size=3, num_wavelengths=16)
        assert rows[0].num_chunks == 1
        # steps grow linearly with chunks
        assert rows[1].steps == rows[0].steps + 1
        assert rows[2].steps == rows[0].steps + 3
        # deeper pipelining reduces striping headroom
        assert rows[2].min_striping <= rows[0].min_striping

    def test_pipelined_execution_on_real_rwa(self):
        from repro.collectives.wrht_pipelined import generate_wrht_pipelined
        system = OpticalRingSystem(num_nodes=27, num_wavelengths=16)
        wl = Workload(data_bytes=10 * units.MB)
        params = WrhtParameters(num_nodes=27, group_size=3,
                                num_wavelengths=16, alltoall_threshold=3)
        sched, _ = generate_wrht_pipelined(params, 4)
        report = OpticalRingSubstrate(system).execute(sched, wl)
        assert report.peak_wavelength_demand() <= 16
        verify_allreduce(sched, elements_per_chunk=1)
