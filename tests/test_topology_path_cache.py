"""Tests for the shape signature substrates key shared compile caches on."""

import pytest

from repro.topology.ring import RingTopology
from repro.topology.switched import SwitchedStar


class TestTopologySignature:
    def test_identical_topologies_share_signature(self):
        a = RingTopology(8, capacity=2.5, latency=1e-6)
        b = RingTopology(8, capacity=2.5, latency=1e-6)
        assert a.shape_signature() == b.shape_signature()

    @pytest.mark.parametrize("other", [
        RingTopology(8, capacity=2.5),             # different latency
        RingTopology(8, capacity=3.0, latency=1e-6),
    ])
    def test_rate_variants_share_signature(self, other):
        base = RingTopology(8, capacity=2.5, latency=1e-6)
        assert base.shape_signature() == other.shape_signature()

    @pytest.mark.parametrize("other", [
        RingTopology(9, capacity=2.5, latency=1e-6),
        RingTopology(8, capacity=2.5, latency=1e-6, bidirectional=False),
        SwitchedStar(8, 2.5, latency=1e-6),
    ])
    def test_different_topologies_differ(self, other):
        base = RingTopology(8, capacity=2.5, latency=1e-6)
        assert base.shape_signature() != other.shape_signature()

    def test_signature_is_stable_hex(self):
        sig = SwitchedStar(4, 1.0).shape_signature()
        assert len(sig) == 16
        int(sig, 16)  # parses as hex
