"""Tests for the flow-level (fluid) network simulator."""

import re

import numpy as np
import pytest

from repro import units
from repro.errors import SimulationError
from repro.simulation import FluidNetworkSimulator
from repro.topology import RingTopology, SwitchedStar

GB100 = 100 * units.GBPS


class TestUncongested:
    def test_single_flow_latency_plus_serialization(self):
        star = SwitchedStar(4, GB100, latency=10 * units.USEC)
        sim = FluidNetworkSimulator(star)
        results = sim.run_pairs([(0, 1, 125 * units.MB)])  # 1 Gbit
        # 1 Gbit / 100 Gb/s = 10 ms, + 10 us latency
        assert results[0].finish_time == pytest.approx(
            10e-3 + 10e-6, rel=1e-9)

    def test_disjoint_flows_do_not_interact(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        results = sim.run_pairs([(0, 1, 125 * units.MB),
                                 (2, 3, 125 * units.MB)])
        for r in results:
            assert r.finish_time == pytest.approx(10e-3, rel=1e-9)


class TestCongested:
    def test_shared_downlink_halves_rate(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        results = sim.run_pairs([(0, 1, 125 * units.MB),
                                 (2, 1, 125 * units.MB)])
        for r in results:
            assert r.finish_time == pytest.approx(20e-3, rel=1e-9)

    def test_short_flow_releases_bandwidth(self):
        # Two flows share a downlink; when the small one completes, the big
        # one speeds up: 125MB small, 250MB big.
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        big = sim.make_flow(0, 1, 250 * units.MB)
        small = sim.make_flow(2, 1, 125 * units.MB)
        results = {r.size: r for r in sim.run([big, small])}
        # small: 125MB at 50Gb/s = 20ms.
        assert results[125 * units.MB].finish_time == pytest.approx(
            20e-3, rel=1e-9)
        # big: 125MB done at t=20ms, remaining 125MB at full rate = +10ms.
        assert results[250 * units.MB].finish_time == pytest.approx(
            30e-3, rel=1e-9)

    def test_staggered_start(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        f1 = sim.make_flow(0, 1, 125 * units.MB, start_time=0.0)
        f2 = sim.make_flow(2, 1, 125 * units.MB, start_time=5e-3)
        results = {(r.src, r.dst): r for r in sim.run([f1, f2])}
        # f1 alone for 5ms (50MB done ... at 100Gb/s 12.5GB/s*5ms=62.5MB),
        # then shares: remaining 62.5MB at 6.25GB/s = 10ms -> total 15ms
        assert results[(0, 1)].finish_time == pytest.approx(15e-3, rel=1e-6)
        # f2: shares 10ms (62.5MB), then alone 62.5MB at 12.5GB/s = 5ms
        assert results[(2, 1)].finish_time == pytest.approx(20e-3, rel=1e-6)


class TestRingSubstrate:
    def test_neighbor_exchange_full_rate(self):
        ring = RingTopology(8, capacity=GB100, latency=1 * units.USEC)
        sim = FluidNetworkSimulator(ring)
        pairs = [(i, (i + 1) % 8, 125 * units.MB) for i in range(8)]
        t = sim.step_time(pairs)
        assert t == pytest.approx(10e-3 + 1e-6, rel=1e-6)

    def test_far_flow_crosses_many_links(self):
        ring = RingTopology(8, capacity=GB100, latency=1 * units.USEC)
        sim = FluidNetworkSimulator(ring)
        results = sim.run_pairs([(0, 4, 125 * units.MB)])
        assert results[0].finish_time == pytest.approx(10e-3 + 4e-6, rel=1e-6)


class TestTrace:
    def test_bytes_accounted(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star, keep_trace=True)
        sim.run_pairs([(0, 1, 125 * units.MB)])
        # flow crosses 2 links: up + down
        assert sim.trace.total_bytes() == pytest.approx(
            2 * 125 * units.MB, rel=1e-6)
        hottest = sim.trace.hottest_link()
        assert hottest is not None
        _, trace = hottest
        assert trace.peak_rate == pytest.approx(GB100, rel=1e-9)

    def test_mean_utilization(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star, keep_trace=True)
        results = sim.run_pairs([(0, 1, 125 * units.MB)])
        horizon = results[0].finish_time
        lid = (0, -1, "up")
        assert sim.trace.links[lid].mean_utilization(horizon) == \
            pytest.approx(1.0, rel=1e-6)


class TestFlowResult:
    def test_mean_rate(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        r = sim.run_pairs([(0, 1, 125 * units.MB)])[0]
        assert r.mean_rate == pytest.approx(GB100, rel=1e-6)
        assert r.duration == pytest.approx(10e-3, rel=1e-6)

    def test_rerunnable(self):
        star = SwitchedStar(4, GB100, latency=0.0)
        sim = FluidNetworkSimulator(star)
        flow = sim.make_flow(0, 1, 125 * units.MB)
        t1 = sim.run([flow])[0].finish_time
        t2 = sim.run([flow])[0].finish_time
        assert t1 == t2


class TestInputValidation:
    """Bad flows raise ``SimulationError`` before anything is solved."""

    GB1 = 1e9  # bytes/s: a 1-byte flow takes 1 ns

    @pytest.mark.parametrize("start", [-1.0, float("nan"), float("inf")])
    def test_run_rejects_bad_start_time(self, start):
        sim = FluidNetworkSimulator(RingTopology(4, self.GB1))
        flow = sim.make_flow(0, 1, 1.0, start_time=start)
        with pytest.raises(SimulationError, match=re.escape(
                f"flow 0->1 start_time must be >= 0 and finite, "
                f"got {start!r}")):
            sim.run([flow])

    def test_run_rejects_bad_start_among_good_flows(self):
        sim = FluidNetworkSimulator(RingTopology(4, self.GB1))
        flows = [sim.make_flow(0, 1, 1.0),
                 sim.make_flow(2, 3, 1.0, start_time=-1e-9)]
        with pytest.raises(SimulationError, match="flow 2->3 start_time"):
            sim.run(flows)
        with pytest.raises(SimulationError, match="start_time"):
            sim.run_pairs([(0, 1, 1.0)], start_time=float("nan"))

    def test_zero_and_late_starts_still_run(self):
        sim = FluidNetworkSimulator(RingTopology(4, self.GB1))
        late = sim.run([sim.make_flow(0, 1, 1.0, start_time=2.5)])
        assert late[0].finish_time == pytest.approx(2.5 + 1e-9)
        assert sim.run_pairs([(0, 1, 1.0)])[0].finish_time == \
            pytest.approx(1e-9)

    @pytest.mark.parametrize("bad", [1.7, 3.0, True, np.bool_(True),
                                     "1", None],
                             ids=["float", "integral-float", "bool",
                                  "numpy-bool", "str", "none"])
    def test_entry_points_reject_non_integer_node_ids(self, bad):
        plain = FluidNetworkSimulator(RingTopology(4, self.GB1))
        traced = FluidNetworkSimulator(RingTopology(4, self.GB1),
                                       keep_trace=True)
        step = [(0, 1, 1.0), (bad, 3, 1.0)]
        for call in (plain.step_profile, plain.step_time,
                     lambda s: plain.run_schedule([s]),
                     lambda s: plain.step_time_many([s, s]),
                     traced.step_time,
                     lambda s: traced.run_schedule([s]),
                     lambda s: traced.step_time_many([s]),
                     plain.run_pairs,
                     lambda s: plain.make_flow(*s[1])):
            with pytest.raises(SimulationError, match=re.escape(
                    f"flow node id must be an integer, got {bad!r}")):
                call(step)
        # the destination is checked too
        with pytest.raises(SimulationError, match="node id"):
            plain.step_profile([(3, bad, 1.0)])
        assert plain.pattern_cache_info().lookups == 0

    def test_python_and_numpy_integer_ids_price_alike(self):
        sim = FluidNetworkSimulator(RingTopology(4, self.GB1))
        ref = FluidNetworkSimulator(RingTopology(4, self.GB1))
        step = [(1, 3, 1.0), (0, 2, 2.0)]
        typed = [(np.int64(1), np.int32(3), 1.0),
                 (np.uint8(0), np.int16(2), np.float64(2.0))]
        want = ref.step_profile(step)
        got = sim.step_profile(typed)
        assert got.pairs == want.pairs == ((0, 2), (1, 3))
        assert all(type(v) is int for pair in got.pairs for v in pair)
        assert np.array_equal(got.finish_times, want.finish_times)
        assert sim.run_schedule([typed, step])[0].pairs == want.pairs
        assert sim.step_time_many([typed]) == [want.makespan]
        (got_run,) = sim.run_pairs(typed[:1])
        (want_run,) = ref.run_pairs(step[:1])
        assert (got_run.src, got_run.dst, got_run.finish_time) == \
            (want_run.src, want_run.dst, want_run.finish_time)
