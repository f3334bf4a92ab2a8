"""Tests for static schedule analysis (demand, hops, summaries)."""

import pytest

from repro.collectives import (WrhtParameters, generate_ring_allreduce,
                               generate_wrht)
from repro.collectives.analysis import (describe_schedule,
                                        max_hops_per_step,
                                        peak_wavelength_demand,
                                        schedule_wavelength_demand,
                                        step_wavelength_demand, summarize,
                                        transfer_direction)
from repro.collectives.schedule import Schedule, Transfer, TransferOp
from repro.topology.ring import Direction, RingTopology

from wrht_references import ring_link_loads


def ring(n=8):
    return RingTopology(n, capacity=1.0, bidirectional=True)


class TestTransferDirection:
    def test_hint_respected(self):
        r = ring()
        t = Transfer(0, 1, range(1), TransferOp.REDUCE,
                     direction_hint="ccw")
        assert transfer_direction(r, t) is Direction.CCW

    def test_shortest_arc_fallback(self):
        r = ring()
        t = Transfer(0, 6, range(1), TransferOp.REDUCE)
        assert transfer_direction(r, t) is Direction.CCW


class TestRingLinkLoads:
    def test_single_cw_flow(self):
        cw, ccw = ring_link_loads(8, [(0, 3, Direction.CW)])
        assert cw == [1, 1, 1, 0, 0, 0, 0, 0]
        assert sum(ccw) == 0

    def test_wraparound_flow(self):
        cw, _ = ring_link_loads(8, [(6, 1, Direction.CW)])
        assert cw == [1, 0, 0, 0, 0, 0, 1, 1]

    def test_ccw_flow_indexing(self):
        # ccw link i is i -> i-1; a flow 3 -> 1 ccw uses links 3 and 2.
        _, ccw = ring_link_loads(8, [(3, 1, Direction.CCW)])
        assert ccw == [0, 0, 1, 1, 0, 0, 0, 0]

    def test_ccw_wraparound(self):
        _, ccw = ring_link_loads(8, [(1, 6, Direction.CCW)])
        # links used: 1, 0, 7
        assert ccw == [1, 1, 0, 0, 0, 0, 0, 1]


class TestDemand:
    def test_oring_demand_is_one(self):
        sched = generate_ring_allreduce(8)
        assert peak_wavelength_demand(ring(), sched) == 1

    def test_overlapping_step(self):
        sched = Schedule(num_nodes=8, num_chunks=1)
        step = sched.add_step([
            Transfer(0, 3, range(1), TransferOp.REDUCE, "cw"),
            Transfer(1, 4, range(1), TransferOp.REDUCE, "cw")])
        assert step_wavelength_demand(ring(), step) == 2

    def test_per_step_list(self):
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=27, group_size=3, num_wavelengths=8,
            alltoall_threshold=3))
        demands = schedule_wavelength_demand(ring(27), sched)
        assert len(demands) == sched.num_steps
        assert all(d >= 1 for d in demands)


class TestHops:
    def test_max_hops_ring(self):
        sched = generate_ring_allreduce(8)
        assert max_hops_per_step(ring(), sched) == [1] * 14

    def test_max_hops_wrht_grow_with_level(self):
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=27, group_size=3, num_wavelengths=8,
            allow_alltoall_shortcut=False))
        hops = max_hops_per_step(ring(27), sched)
        assert hops[0] == 1   # neighbours
        assert hops[1] == 3   # reps spaced 3 apart
        assert hops[2] == 9


class TestSummaries:
    def test_summarize_ring(self):
        stats = summarize(generate_ring_allreduce(4))
        assert stats.num_nodes == 4
        assert stats.num_steps == 6
        assert stats.bytes_per_node_factor == pytest.approx(6 / 4)

    def test_describe_truncates(self):
        sched = generate_ring_allreduce(8)
        text = describe_schedule(sched, ring(), max_steps=3)
        assert "more steps" in text
        assert "step   0" in text

    def test_describe_with_demand(self):
        sched = generate_ring_allreduce(4)
        text = describe_schedule(sched, ring(4))
        assert "lambda-demand" in text
