"""Property tests crossing generators, executors and cost models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.collectives import (WrhtParameters, generate_ring_allreduce,
                               generate_wrht)
from repro.config import ElectricalSystem, OpticalRingSystem, Workload
from repro.core.cost_model import (ering_time, oring_time,
                                   wrht_time_from_schedule)
from repro.core.substrates import ElectricalSubstrate, OpticalRingSubstrate
from repro.optical.rwa import AssignmentPolicy


@st.composite
def wrht_case(draw):
    n = draw(st.integers(4, 48))
    m = draw(st.integers(2, 8))
    w = draw(st.integers(max(m // 2, 2), 32))
    nbytes = draw(st.floats(1e3, 1e8))
    return n, m, w, nbytes


class TestAnalyticVsSimulated:
    @given(wrht_case())
    @settings(max_examples=40, deadline=None)
    def test_wrht_model_matches_executor(self, case):
        n, m, w, nbytes = case
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
        wl = Workload(data_bytes=nbytes)
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=m, num_wavelengths=w,
            alltoall_threshold=m))
        analytic = wrht_time_from_schedule(sched, system, wl).total_time
        simulated = OpticalRingSubstrate(system).execute(sched, wl).total_time
        # Bounds, not equality: (a) the analytic model charges tuning on
        # every step while the executor skips repeats, so analytic can
        # exceed simulated by at most the tuning budget; (b) on circular-
        # arc all-to-all steps First-Fit may not realise the congestion-
        # derived striping factor and the executor falls back to thinner
        # stripes (>= 1), so simulated is bounded above by the
        # no-striping analytic time.
        nostripe = wrht_time_from_schedule(
            sched, system.with_(allow_striping=False), wl).total_time
        assert simulated <= nostripe + 1e-12
        assert analytic - simulated <= sched.num_steps \
            * system.tuning_time + 1e-12
        # and striping in the executor never makes a step slower than
        # its own single-wavelength variant.
        unstriped = OpticalRingSubstrate(system, striping="off").execute(
            sched, wl).total_time
        assert simulated <= unstriped + 1e-12

    @given(n=st.integers(2, 24), nbytes=st.floats(1e3, 1e8))
    @settings(max_examples=30, deadline=None)
    def test_oring_model_exact(self, n, nbytes):
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=4)
        wl = Workload(data_bytes=nbytes)
        sched = generate_ring_allreduce(n)
        assert oring_time(system, wl) == pytest.approx(
            OpticalRingSubstrate(system, striping="off").execute(
                sched, wl).total_time, rel=1e-9)

    @given(n=st.integers(2, 24), nbytes=st.floats(1e3, 1e8))
    @settings(max_examples=30, deadline=None)
    def test_ering_model_exact(self, n, nbytes):
        system = ElectricalSystem(num_nodes=n, topology="ring")
        wl = Workload(data_bytes=nbytes)
        sched = generate_ring_allreduce(n)
        assert ering_time(system, wl) == pytest.approx(
            ElectricalSubstrate(system).execute(
                sched, wl).total_time, rel=1e-9)


class TestExecutorInvariants:
    @given(case=wrht_case(),
           policy=st.sampled_from(list(AssignmentPolicy)))
    @settings(max_examples=30, deadline=None)
    def test_wavelength_budget_never_exceeded(self, case, policy):
        n, m, w, nbytes = case
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
        wl = Workload(data_bytes=nbytes)
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=m, num_wavelengths=w,
            alltoall_threshold=m))
        rep = OpticalRingSubstrate(system, policy=policy).execute(sched, wl)
        assert rep.peak_wavelength_demand() <= w
        for step in rep.steps:
            assert step.spectrum_span <= w
            assert step.striping >= 1

    @given(wrht_case())
    @settings(max_examples=25, deadline=None)
    def test_durations_decompose(self, case):
        n, m, w, nbytes = case
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
        wl = Workload(data_bytes=nbytes)
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=m, num_wavelengths=w,
            alltoall_threshold=m))
        rep = OpticalRingSubstrate(system).execute(sched, wl)
        assert rep.total_time == pytest.approx(
            sum(s.duration for s in rep.steps), rel=1e-12)
        for s in rep.steps:
            assert s.duration == pytest.approx(
                s.tuning_time + s.overhead_time + s.serialization_time
                + s.propagation_time, rel=1e-9)

    @given(n=st.integers(2, 16), nbytes=st.floats(1e4, 1e7))
    @settings(max_examples=20, deadline=None)
    def test_striping_never_slower(self, n, nbytes):
        system = OpticalRingSystem(num_nodes=n, num_wavelengths=8)
        wl = Workload(data_bytes=nbytes)
        sched = generate_ring_allreduce(n)
        off = OpticalRingSubstrate(system, striping="off").execute(sched, wl)
        auto = OpticalRingSubstrate(system, striping="auto").execute(sched, wl)
        assert auto.total_time <= off.total_time + 1e-12
