"""Tests for the signatures substrates key shared fluid caches on."""

import pytest

from repro.topology.ring import RingTopology
from repro.topology.switched import SwitchedStar


class TestTopologySignature:
    def test_identical_topologies_share_signature(self):
        a = RingTopology(8, capacity=2.5, latency=1e-6)
        b = RingTopology(8, capacity=2.5, latency=1e-6)
        assert a.signature() == b.signature()

    @pytest.mark.parametrize("other", [
        RingTopology(8, capacity=2.5),             # different latency
        RingTopology(8, capacity=3.0, latency=1e-6),
        RingTopology(9, capacity=2.5, latency=1e-6),
        RingTopology(8, capacity=2.5, latency=1e-6, bidirectional=False),
    ])
    def test_different_topologies_differ(self, other):
        base = RingTopology(8, capacity=2.5, latency=1e-6)
        assert base.signature() != other.signature()

    def test_signature_is_stable_hex(self):
        sig = SwitchedStar(4, 1.0).signature()
        assert len(sig) == 16
        int(sig, 16)  # parses as hex
