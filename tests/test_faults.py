"""Tests for the fault model: events, plans, timelines, degraded topology."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DegradedError, TopologyError
from repro.faults import (CLEAN_STATE, FaultEvent, FaultKind, FaultPlan,
                          FaultState, FaultTimeline)
from repro.topology import DegradedTopology
from repro.topology.ring import RingTopology
from repro.topology.switched import SwitchedStar


def ev(time, kind, **kw):
    return FaultEvent(time=time, kind=kind, **kw)


class TestFaultEvent:
    def test_kind_target_validation(self):
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.LINK_DOWN)  # no target
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.LINK_DOWN, link=(0, 1),
                       node=2)  # two targets
        with pytest.raises(ConfigurationError):
            FaultEvent(time=0.0, kind=FaultKind.NODE_DOWN, link=(0, 1))

    def test_link_normalized_sorted(self):
        e = ev(0.0, FaultKind.LINK_DOWN, link=(3, 1))
        assert e.link == (1, 3)

    def test_stall_needs_positive_duration(self):
        with pytest.raises(ConfigurationError):
            ev(0.0, FaultKind.OCS_STALL, duration=0.0)
        e = ev(0.0, FaultKind.OCS_STALL, duration=0.5)
        assert e.duration == 0.5

    @pytest.mark.parametrize("time", [float("nan"), float("inf")])
    def test_time_must_be_finite(self, time):
        with pytest.raises(ConfigurationError, match="finite"):
            ev(time, FaultKind.LINK_DOWN, link=(0, 1))

    @pytest.mark.parametrize("duration", [float("nan"), float("inf")])
    def test_stall_duration_must_be_finite(self, duration):
        with pytest.raises(ConfigurationError, match="finite"):
            ev(0.0, FaultKind.OCS_STALL, duration=duration)

    def test_is_repair(self):
        assert ev(0.0, FaultKind.LINK_UP, link=(0, 1)).is_repair
        assert not ev(0.0, FaultKind.LINK_DOWN, link=(0, 1)).is_repair


class TestFaultState:
    def test_fold_down_up_round_trip(self):
        s = CLEAN_STATE.apply(ev(0.0, FaultKind.LINK_DOWN, link=(0, 1)))
        s = s.apply(ev(0.1, FaultKind.NODE_DOWN, node=3))
        s = s.apply(ev(0.2, FaultKind.WAVELENGTH_DOWN, wavelength=2))
        assert not s.is_clean
        assert (0, 1) in s.failed_links
        assert 3 in s.failed_nodes
        assert 2 in s.failed_wavelengths
        s = s.apply(ev(0.3, FaultKind.LINK_UP, link=(0, 1)))
        s = s.apply(ev(0.4, FaultKind.NODE_UP, node=3))
        s = s.apply(ev(0.5, FaultKind.WAVELENGTH_UP, wavelength=2))
        assert s.is_clean

    def test_stall_not_counted_as_unclean(self):
        s = CLEAN_STATE.apply(ev(1.0, FaultKind.OCS_STALL, duration=0.5))
        assert s.is_clean
        assert s.stall_until == pytest.approx(1.5)

    def test_impaired_hosts(self):
        s = CLEAN_STATE.apply(ev(0.0, FaultKind.LINK_DOWN, link=(2, 3)))
        s = s.apply(ev(0.0, FaultKind.NODE_DOWN, node=7))
        assert s.impaired_hosts(8) == frozenset({2, 3, 7})
        # clipped to the host range
        assert s.impaired_hosts(3) == frozenset({2})


class TestFaultPlan:
    def test_events_sorted_by_time(self):
        plan = FaultPlan.of([
            ev(2.0, FaultKind.LINK_UP, link=(0, 1)),
            ev(1.0, FaultKind.LINK_DOWN, link=(0, 1)),
        ])
        assert [e.time for e in plan.events] == [1.0, 2.0]
        assert plan.final_time == 2.0

    def test_poisson_deterministic_per_seed(self):
        a = FaultPlan.poisson(duration=5.0, num_nodes=16, seed=42,
                              link_rate=3.0, node_rate=1.0, stall_rate=2.0)
        b = FaultPlan.poisson(duration=5.0, num_nodes=16, seed=42,
                              link_rate=3.0, node_rate=1.0, stall_rate=2.0)
        c = FaultPlan.poisson(duration=5.0, num_nodes=16, seed=43,
                              link_rate=3.0, node_rate=1.0, stall_rate=2.0)
        assert a.events == b.events
        assert a.events != c.events
        assert a.num_events > 0

    def test_poisson_rng_wins_over_seed(self):
        rng = np.random.default_rng(7)
        a = FaultPlan.poisson(duration=5.0, num_nodes=8, seed=999, rng=rng,
                              link_rate=2.0)
        b = FaultPlan.poisson(duration=5.0, num_nodes=8, seed=111,
                              rng=np.random.default_rng(7), link_rate=2.0)
        assert a.events == b.events

    def test_poisson_no_overlapping_downs_per_target(self):
        plan = FaultPlan.poisson(duration=20.0, num_nodes=4, seed=1,
                                 link_rate=10.0, mean_repair=1.0)
        state_down = set()
        for e in sorted(plan.events, key=lambda e: e.time):
            if e.kind is FaultKind.LINK_DOWN:
                assert e.link not in state_down
                state_down.add(e.link)
            elif e.kind is FaultKind.LINK_UP:
                assert e.link in state_down
                state_down.remove(e.link)

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.poisson(duration=0.0, num_nodes=8)
        with pytest.raises(ConfigurationError):
            FaultPlan.poisson(duration=1.0, num_nodes=8,
                              link_rate=float("nan"))
        with pytest.raises(ConfigurationError):
            FaultPlan.poisson(duration=1.0, num_nodes=8, link_rate=-1.0)

    def test_state_at_and_shifted(self):
        plan = FaultPlan.of([
            ev(1.0, FaultKind.NODE_DOWN, node=2),
            ev(3.0, FaultKind.NODE_UP, node=2),
        ])
        assert plan.state_at(0.5).is_clean
        assert 2 in plan.state_at(2.0).failed_nodes
        assert plan.state_at(3.0).is_clean
        moved = plan.shifted(10.0)
        assert [e.time for e in moved.events] == [11.0, 13.0]


class TestFaultTimeline:
    def test_incremental_fold_matches_state_at(self):
        plan = FaultPlan.poisson(duration=5.0, num_nodes=8, seed=5,
                                 link_rate=4.0, node_rate=2.0)
        tl = plan.timeline()
        for t in np.linspace(0.0, 8.0, 33):
            assert tl.advance(float(t)) == plan.state_at(float(t))

    def test_monotone_clock_enforced(self):
        tl = FaultTimeline(FaultPlan.none())
        tl.advance(1.0)
        with pytest.raises(ConfigurationError):
            tl.advance(0.5)

    def test_next_change(self):
        plan = FaultPlan.of([ev(2.0, FaultKind.NODE_DOWN, node=0)])
        tl = plan.timeline()
        assert tl.next_change() == 2.0
        tl.advance(2.0)
        assert tl.next_change() == float("inf")
        assert tl.applied == 1


class TestDegradedTopology:
    def test_no_failures_returns_self(self):
        ring = RingTopology(8, capacity=1.0, bidirectional=True)
        assert ring.with_failed_links() is ring

    def test_reroute_around_cut(self):
        ring = RingTopology(8, capacity=1.0, bidirectional=True)
        deg = ring.with_failed_links(failed_links=[(2, 3)])
        assert isinstance(deg, DegradedTopology)
        path = deg.path(2, 3)
        # the long way round, not across the cut
        assert len(path) == 7

    def test_partition_raises_degraded_error(self):
        ring = RingTopology(8, capacity=1.0, bidirectional=True)
        deg = ring.with_failed_links(failed_links=[(1, 2), (5, 6)])
        with pytest.raises(DegradedError):
            deg.path(3, 7)
        # same side of both cuts still routes
        assert deg.path(3, 4)

    def test_failed_node_unreachable(self):
        ring = RingTopology(8, capacity=1.0, bidirectional=True)
        deg = ring.with_failed_links(failed_nodes=[4])
        with pytest.raises(DegradedError):
            deg.path(0, 4)
        assert deg.path(3, 5)  # routes around the dead node

    def test_signature_differs_from_healthy_and_per_mask(self):
        star = SwitchedStar(8, capacity=1.0)
        a = star.with_failed_links(failed_nodes=[1])
        b = star.with_failed_links(failed_nodes=[2])
        sigs = {star.shape_signature(), a.shape_signature(),
                b.shape_signature()}
        assert len(sigs) == 3

    def test_self_loop_link_rejected(self):
        ring = RingTopology(8, capacity=1.0, bidirectional=True)
        with pytest.raises(TopologyError):
            ring.with_failed_links(failed_links=[(3, 3)])
