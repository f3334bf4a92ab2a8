"""Tests for the optical substrate: spectrum, MRR, links, nodes, network."""

import pytest

from repro import units
from repro.config import OpticalRingSystem
from repro.errors import (ConfigurationError, TopologyError,
                          WavelengthAllocationError)
from repro.optical import (MicroRingBank, OpticalNode, OpticalRingNetwork,
                           WaveguideLink, WavelengthGrid)
from repro.optical.transfer import OpticalTransfer, transfer_time
from repro.topology.ring import Direction


class TestWavelengthGrid:
    def test_aggregate_rate(self):
        g = WavelengthGrid(64, 25 * units.GBPS)
        assert g.aggregate_rate == pytest.approx(1.6 * units.TBPS)

    def test_frequencies_ascend(self):
        g = WavelengthGrid(4, 25 * units.GBPS)
        freqs = [g.frequency_hz(c) for c in g.channels()]
        assert freqs == sorted(freqs)
        assert freqs[1] - freqs[0] == pytest.approx(100e9)

    def test_wavelength_nm_in_c_band(self):
        g = WavelengthGrid(64, 25 * units.GBPS)
        nm = g.wavelength_nm(0)
        assert 1500 < nm < 1600

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WavelengthGrid(0, 1.0)
        g = WavelengthGrid(4, 1.0)
        with pytest.raises(ConfigurationError):
            g.frequency_hz(4)


class TestMicroRingBank:
    def test_retune_costs_once(self):
        bank = MicroRingBank(4, 64, tuning_time=25e-6)
        assert bank.retune({1, 2}) == pytest.approx(25e-6)
        assert bank.retune({1, 2}) == 0.0  # unchanged
        assert bank.retune({3}) == pytest.approx(25e-6)

    def test_ring_budget_enforced(self):
        bank = MicroRingBank(2, 64, tuning_time=0.0)
        with pytest.raises(ConfigurationError):
            bank.retune({0, 1, 2})

    def test_channel_range_enforced(self):
        bank = MicroRingBank(4, 4, tuning_time=0.0)
        with pytest.raises(ConfigurationError):
            bank.retune({4})

    def test_static_power(self):
        bank = MicroRingBank(4, 64, tuning_time=0.0, heater_power_w=0.02)
        bank.retune({0, 1, 2})
        assert bank.static_power_w() == pytest.approx(0.06)

    def test_reset(self):
        bank = MicroRingBank(4, 64, tuning_time=1.0)
        bank.retune({0})
        bank.reset()
        assert bank.selected == frozenset()


class TestWaveguideLink:
    def test_occupy_release_cycle(self):
        link = WaveguideLink(0, 1, "cw", 4)
        link.occupy(2, "t1")
        assert not link.is_free(2)
        link.release(2, "t1")
        assert link.is_free(2)

    def test_conflict_detected(self):
        link = WaveguideLink(0, 1, "cw", 4)
        link.occupy(1, "t1")
        with pytest.raises(WavelengthAllocationError):
            link.occupy(1, "t2")

    def test_same_owner_reoccupy_ok(self):
        link = WaveguideLink(0, 1, "cw", 4)
        link.occupy(1, "t1")
        link.occupy(1, "t1")  # idempotent

    def test_release_wrong_owner_rejected(self):
        link = WaveguideLink(0, 1, "cw", 4)
        link.occupy(1, "t1")
        with pytest.raises(WavelengthAllocationError):
            link.release(1, "t2")

    def test_release_owner_bulk(self):
        link = WaveguideLink(0, 1, "cw", 4)
        link.occupy(0, "t1")
        link.occupy(1, "t1")
        link.occupy(2, "t2")
        link.release_owner("t1")
        assert link.free_wavelengths() == [0, 1, 3]

    def test_out_of_range(self):
        link = WaveguideLink(0, 1, "cw", 4)
        with pytest.raises(WavelengthAllocationError):
            link.occupy(4, "t")


class TestOpticalNode:
    def test_injection_rate(self):
        node = OpticalNode(0, 64, 25 * units.GBPS, tuning_time=0.0)
        assert node.injection_rate == pytest.approx(1.6 * units.TBPS)


class TestOpticalRingNetwork:
    def make(self, n=8, w=4, bidir=True):
        return OpticalRingNetwork(OpticalRingSystem(
            num_nodes=n, num_wavelengths=w, bidirectional=bidir))

    def test_retune_max_across_banks(self):
        net = OpticalRingNetwork(OpticalRingSystem(
            num_nodes=4, num_wavelengths=4, tuning_time=25e-6))
        # Node 0 adds {0, 1} clockwise and drops {2} counter-clockwise.
        selection = net.selection([(0, 1, Direction.CW, (0, 1)),
                                   (3, 0, Direction.CCW, (2,))])
        cost = net.retune(selection)
        assert cost == pytest.approx(25e-6)
        # Same selection again: free.
        assert net.retune(selection) == 0.0

    def test_segments_built(self):
        net = self.make()
        assert len(net.all_waveguides()) == 16
        net_uni = self.make(bidir=False)
        assert len(net_uni.all_waveguides()) == 8

    def test_missing_waveguide_rejected(self):
        net = self.make()
        with pytest.raises(TopologyError):
            net.waveguide(0, 2, "cw")  # not adjacent

    def test_occupy_path_all_or_nothing(self):
        net = self.make()
        # Block one middle segment, then a long path over it must roll back.
        net.waveguide(1, 2, "cw").occupy(0, "blocker")
        with pytest.raises(WavelengthAllocationError):
            net.occupy_path(0, 3, Direction.CW, [0], "t")
        # Nothing else was left claimed
        assert net.waveguide(0, 1, "cw").is_free(0)
        assert net.waveguide(2, 3, "cw").is_free(0)

    def test_release_owner(self):
        net = self.make()
        net.occupy_path(0, 3, Direction.CW, [0, 1], "t")
        assert net.occupied_slots() == 6
        net.release_owner("t")
        assert net.occupied_slots() == 0

    def test_slot_capacity(self):
        net = self.make(n=8, w=4)
        assert net.slot_capacity() == 16 * 4


class TestTransferTiming:
    def test_serialization_plus_propagation(self):
        sys = OpticalRingSystem(num_nodes=8, num_wavelengths=64,
                                wavelength_rate=25 * units.GBPS,
                                node_spacing=0.5)
        # 1 Gbit over 1 wavelength = 5 ms; 4 hops of 2.5 ns
        t = transfer_time(sys, 125 * units.MB, hops=4, num_wavelengths=1)
        assert t == pytest.approx(40e-3 + 10e-9, rel=1e-9)

    def test_striping_divides_time(self):
        sys = OpticalRingSystem(num_nodes=8)
        t1 = transfer_time(sys, 125 * units.MB, hops=0, num_wavelengths=1)
        t4 = transfer_time(sys, 125 * units.MB, hops=0, num_wavelengths=4)
        assert t1 == pytest.approx(4 * t4, rel=1e-12)

    def test_too_many_wavelengths_rejected(self):
        sys = OpticalRingSystem(num_nodes=8, num_wavelengths=4)
        with pytest.raises(ConfigurationError):
            transfer_time(sys, 1.0, 0, num_wavelengths=5)

    def test_placed_transfer(self):
        from repro.optical.transfer import placed_transfer_time
        sys = OpticalRingSystem(num_nodes=8)
        tr = OpticalTransfer(src=0, dst=2, direction=Direction.CW,
                             wavelengths=(0, 1), size=125 * units.MB, hops=2)
        assert tr.striping == 2
        assert placed_transfer_time(sys, tr) == pytest.approx(
            transfer_time(sys, 125 * units.MB, 2, 2))
