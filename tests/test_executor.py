"""Tests for schedule executors on both substrates."""

import pytest

from repro import units
from repro.collectives import (WrhtParameters, generate_recursive_doubling,
                               generate_ring_allreduce, generate_wrht)
from repro.config import ElectricalSystem, OpticalRingSystem, Workload
from repro.core.substrates import ElectricalSubstrate, OpticalRingSubstrate
from repro.errors import ConfigurationError, WavelengthAllocationError


def opt(n=8, w=8, **kw):
    kw.setdefault("tuning_time", 20 * units.USEC)
    kw.setdefault("step_overhead", 1 * units.USEC)
    return OpticalRingSystem(num_nodes=n, num_wavelengths=w, **kw)


def ele(n=8, **kw):
    return ElectricalSystem(num_nodes=n, **kw)


WL = Workload(data_bytes=8 * units.MB, name="t")


class TestOpticalExecution:
    def test_oring_unstriped_timing(self):
        n = 8
        system = opt(n)
        rep = OpticalRingSubstrate(system, striping="off").execute(
            generate_ring_allreduce(n), WL)
        assert rep.num_steps == 2 * (n - 1)
        # per step: S/n bytes over 1 wavelength + 1-hop prop + overhead;
        # tuning only on the first step (circuit never changes).
        per_ser = WL.data_bytes / n / system.wavelength_rate
        expected = (system.tuning_time
                    + rep.num_steps * (per_ser + system.propagation_delay(1)
                                       + system.step_overhead))
        assert rep.total_time == pytest.approx(expected, rel=1e-9)

    def test_tuning_charged_once_for_static_circuits(self):
        n = 8
        rep = OpticalRingSubstrate(opt(n), striping="off").execute(
            generate_ring_allreduce(n), WL)
        tunings = [s.tuning_time for s in rep.steps]
        assert tunings[0] > 0
        assert all(t == 0 for t in tunings[1:])

    def test_striping_auto_speeds_up(self):
        n = 8
        slow = OpticalRingSubstrate(opt(n), striping="off").execute(
            generate_ring_allreduce(n), WL)
        fast = OpticalRingSubstrate(opt(n), striping="auto").execute(
            generate_ring_allreduce(n), WL)
        assert fast.total_time < slow.total_time
        assert fast.steps[0].striping == 8  # one flow per link -> all 8

    def test_striping_respects_allow_flag(self):
        n = 8
        system = opt(n, allow_striping=False)
        rep = OpticalRingSubstrate(system, striping="auto").execute(
            generate_ring_allreduce(n), WL)
        assert all(s.striping == 1 for s in rep.steps)

    def test_fixed_striping(self):
        rep = OpticalRingSubstrate(opt(8), striping=4).execute(
            generate_ring_allreduce(8), WL)
        assert all(s.striping == 4 for s in rep.steps)

    def test_bad_striping_rejected(self):
        with pytest.raises(ConfigurationError):
            OpticalRingSubstrate(opt(8), striping=0).execute(
                generate_ring_allreduce(8), WL)

    def test_wrht_executes_within_budget(self):
        n, w = 27, 8
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=3, num_wavelengths=w,
            alltoall_threshold=3))
        rep = OpticalRingSubstrate(opt(n, w)).execute(sched, WL)
        assert rep.peak_wavelength_demand() <= w
        assert rep.total_time > 0

    def test_infeasible_schedule_raises(self):
        # 3 overlapping 2-hop transfers on a 2-wavelength ring, all CW.
        from repro.collectives.schedule import Schedule, Transfer, TransferOp
        sched = Schedule(num_nodes=8, num_chunks=1)
        sched.add_step([
            Transfer(0, 3, range(1), TransferOp.REDUCE, "cw"),
            Transfer(1, 4, range(1), TransferOp.REDUCE, "cw"),
            Transfer(2, 5, range(1), TransferOp.REDUCE, "cw")])
        with pytest.raises(WavelengthAllocationError):
            OpticalRingSubstrate(opt(8, w=2), striping="off").execute(
                sched, WL)

    def test_schedule_larger_than_system_rejected(self):
        with pytest.raises(ConfigurationError):
            OpticalRingSubstrate(opt(8)).execute(
                generate_ring_allreduce(16), WL)


class TestElectricalExecution:
    def test_ering_timing_on_ring_topology(self):
        n = 8
        system = ele(n, topology="ring", link_rate=100 * units.GBPS,
                     step_latency=10 * units.USEC)
        rep = ElectricalSubstrate(system).execute(
            generate_ring_allreduce(n), WL)
        per = WL.data_bytes / n / system.link_rate + system.step_latency
        assert rep.total_time == pytest.approx(2 * (n - 1) * per, rel=1e-9)

    def test_rd_timing_on_switch(self):
        n = 8
        system = ele(n, topology="switch")
        rep = ElectricalSubstrate(system).execute(
            generate_recursive_doubling(n), WL)
        per = WL.data_bytes / system.link_rate + system.step_latency
        assert rep.total_time == pytest.approx(3 * per, rel=1e-9)

    def test_report_shape(self):
        rep = ElectricalSubstrate(ele(4)).execute(
            generate_recursive_doubling(4), WL)
        assert rep.num_steps == 2
        assert rep.total_serialization > 0
        assert rep.total_overhead > 0
        assert rep.substrate == "electrical-switch"
