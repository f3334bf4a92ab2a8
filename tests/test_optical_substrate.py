"""Tests for the optical substrate: links, network, transfers."""

import math

import pytest

from repro import units
from repro.config import OpticalRingSystem
from repro.errors import (ConfigurationError, TopologyError,
                          WavelengthAllocationError)
from repro.optical import OpticalRingNetwork, WaveguideLink
from repro.optical.transfer import OpticalTransfer, transfer_time
from repro.topology.ring import Direction


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


class TestOpticalRingNetwork:
    def make(self, n=8, w=4, bidir=True):
        return OpticalRingNetwork(OpticalRingSystem(
            num_nodes=n, num_wavelengths=w, bidirectional=bidir))

    @pytest.mark.parametrize("tuning", [25e-6, 0.0, -0.0])
    def test_retune_pays_once_per_changed_selection(self, tuning):
        net = OpticalRingNetwork(OpticalRingSystem(
            num_nodes=4, num_wavelengths=4, tuning_time=tuning))
        # Node 0 adds {0, 1} clockwise and drops {2} counter-clockwise.
        both = net.selection([(0, 1, Direction.CW, (0, 1)),
                              (3, 0, Direction.CCW, (2,))])
        one = net.selection([(0, 1, Direction.CW, (0, 1))])
        paid = max(0.0, tuning)
        costs = [net.retune(s) for s in (both, both, one, {}, {})]
        assert costs == [paid, 0.0, paid, paid, 0.0]
        # A -0.0 setting is charged as +0.0.
        assert all(math.copysign(1.0, c) == 1.0 for c in costs)
        net.retune(one)
        net.reset()
        assert net.retune(one) == paid

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
