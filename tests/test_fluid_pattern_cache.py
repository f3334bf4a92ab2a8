"""Tests for the pattern-keyed fluid step cache and its surfacing."""

import re
import warnings

import numpy as np
import pytest

from repro import units
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload, default_ocs
from repro.core.substrates import get_substrate
from repro.simulation import fluid
from repro.simulation.fluid import FluidNetworkSimulator
from repro.topology.ring import RingTopology
from repro.topology.switched import SwitchedStar

from fluid_references import UncachedSimulator

GB100 = 100 * units.GBPS


def _admitting(monkeypatch, max_flows):
    """Simulators built from here on memoize steps of at most
    ``max_flows`` flows."""
    monkeypatch.setattr(fluid, "DEFAULT_PATTERN_CACHE_MAX_FLOWS", max_flows)

#: Every registry substrate whose execution is fluid-backed.
FLUID_SUBSTRATES = ("electrical-switch", "electrical-ring",
                    "optical-torus", "ocs-reconfig")


class TestStepCache:
    def test_repeated_pattern_hits(self):
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        pairs = [(i, (i + 1) % 8, 1.0 * units.MB) for i in range(8)]
        t1 = sim.step_time(pairs)
        t2 = sim.step_time(pairs)
        assert t1 == t2
        info = sim.pattern_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_hit_result_equals_miss_result(self):
        """Cold and warm calls are byte-identical (history-free)."""
        cold = FluidNetworkSimulator(SwitchedStar(8, GB100))
        warm = FluidNetworkSimulator(SwitchedStar(8, GB100))
        pairs = [(0, 1, 3.0 * units.MB), (2, 1, 1.0 * units.MB)]
        warm.step_time(pairs)  # populate
        assert warm.step_time(pairs) == cold.step_time(pairs)

    def test_scaled_sizes_share_one_entry(self):
        """Same pattern + same ratios at any absolute size is one
        cache entry, and times scale linearly (latency-free case)."""
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        pairs = [(0, 1, 2.0 * units.MB), (2, 3, 1.0 * units.MB)]
        scaled = [(s, d, 10 * z) for s, d, z in pairs]
        t1 = sim.step_time(pairs)
        t2 = sim.step_time(scaled)
        info = sim.pattern_cache_info()
        assert info.misses == 1 and info.hits == 1
        assert t2 == pytest.approx(10 * t1, rel=1e-12)

    def test_latency_not_scaled(self):
        """Path latency is additive, not scaled with transfer size."""
        sim = FluidNetworkSimulator(
            SwitchedStar(4, GB100, latency=10 * units.USEC))
        small = sim.step_time([(0, 1, 125 * units.MB)])
        big = sim.step_time([(0, 1, 250 * units.MB)])
        assert small == pytest.approx(10e-3 + 10e-6, rel=1e-9)
        assert big == pytest.approx(20e-3 + 10e-6, rel=1e-9)

    def test_permuted_input_shares_entry(self):
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        a = [(0, 1, 1.0), (2, 3, 2.0)]
        b = [(2, 3, 2.0), (0, 1, 1.0)]
        assert sim.step_time(a) == sim.step_time(b)
        info = sim.pattern_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_cache_disabled_still_correct(self):
        on = FluidNetworkSimulator(SwitchedStar(8, GB100))
        off = UncachedSimulator(SwitchedStar(8, GB100))
        pairs = [(0, 1, 1.0 * units.MB), (2, 1, 1.0 * units.MB)]
        assert on.step_time(pairs) == off.step_time(pairs)
        assert on.step_time(pairs) == off.step_time(pairs)
        assert on.pattern_cache_info().hits == 1
        info = off.pattern_cache_info()
        assert info.hits == 0 and info.size == 0

    def test_step_time_many_matches_loop(self):
        sim = FluidNetworkSimulator(RingTopology(8, GB100))
        other = FluidNetworkSimulator(RingTopology(8, GB100))
        steps = [[(i, (i + 1) % 8, 1.0 * units.MB) for i in range(8)]
                 for _ in range(5)]
        batch = sim.step_time_many(steps)
        assert batch == [other.step_time(s) for s in steps]
        # 5 identical steps: one miss, four hits
        info = sim.pattern_cache_info()
        assert info.misses == 1 and info.hits == 4

    def test_step_profile_slowest_and_propagation(self):
        sim = FluidNetworkSimulator(
            RingTopology(8, GB100, latency=1 * units.USEC))
        profile = sim.step_profile([(0, 1, 1.0 * units.MB),
                                    (0, 4, 1.0 * units.MB)])
        # the 4-hop flow is slowest; its propagation is 4 hops
        assert profile.pairs[profile.slowest] == (0, 4)
        assert profile.propagation == pytest.approx(4e-6, rel=1e-9)

    def test_empty_step(self):
        sim = FluidNetworkSimulator(SwitchedStar(4, GB100))
        assert sim.step_time([]) == 0.0
        profile = sim.step_profile([])
        assert profile.makespan == 0.0 and profile.propagation == 0.0

    def test_nonpositive_size_rejected(self):
        from repro.errors import SimulationError

        sim = FluidNetworkSimulator(SwitchedStar(4, GB100))
        with pytest.raises(SimulationError, match="size must be > 0"):
            sim.step_time([(0, 1, 0.0)])

    @pytest.mark.parametrize("size", [float("inf"), float("nan")])
    def test_non_finite_size_rejected_without_warning(self, size):
        from repro.errors import SimulationError

        bad = [(0, 1, size)]
        plain = FluidNetworkSimulator(RingTopology(4, GB100))
        traced = FluidNetworkSimulator(RingTopology(4, GB100),
                                       keep_trace=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for run in (plain.step_profile, plain.step_time,
                        traced.step_time,
                        lambda pairs: traced.run_schedule([pairs])):
                with pytest.raises(SimulationError, match=re.escape(
                        f"flow 0->1 size must be > 0 and finite, "
                        f"got {size!r}")):
                    run(bad)

    def test_trace_mode_bypasses_cache(self):
        sim = FluidNetworkSimulator(SwitchedStar(4, GB100),
                                    keep_trace=True)
        pairs = [(0, 1, 125 * units.MB)]
        sim.step_time(pairs)
        sim.step_time(pairs)
        assert sim.pattern_cache_info().lookups == 0
        assert sim.trace.total_bytes() == pytest.approx(
            2 * 2 * 125 * units.MB, rel=1e-6)


class TestCacheAdmission:
    def test_oversized_step_solved_but_not_cached(self, monkeypatch):
        free = FluidNetworkSimulator(SwitchedStar(8, GB100))
        _admitting(monkeypatch, 2)
        bounded = FluidNetworkSimulator(SwitchedStar(8, GB100))
        big = [(i, (i + 1) % 8, 1.0 * units.MB) for i in range(6)]
        t1 = bounded.step_time(big)
        t2 = bounded.step_time(big)
        assert t1 == t2 == free.step_time(big)
        info = bounded.pattern_cache_info()
        assert info.size == 0 and info.skipped == 2
        assert info.hits == 0 and info.misses == 2

    def test_small_steps_still_admitted(self, monkeypatch):
        _admitting(monkeypatch, 2)
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        small = [(0, 1, 1.0 * units.MB), (2, 3, 1.0 * units.MB)]
        sim.step_time(small)
        sim.step_time(small)
        info = sim.pattern_cache_info()
        assert info.size == 1 and info.skipped == 0
        assert info.hits == 1 and info.misses == 1

    def test_fused_schedule_solves_oversized_step_once(self, monkeypatch):
        """The per-step path re-solves an inadmissible step on every
        repeat; the fused path shares the solve within the schedule."""
        _admitting(monkeypatch, 2)
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        big = [(i, (i + 1) % 8, 1.0 * units.MB) for i in range(6)]
        loop = FluidNetworkSimulator(SwitchedStar(8, GB100))
        assert sim.step_time_many([big] * 4) == \
            [loop.step_time(big) for _ in range(4)]
        # fused: one solve (one skip); the repeats reuse the profile
        assert sim.pattern_cache_info().skipped == 1
        assert loop.pattern_cache_info().skipped == 4


class TestRunSchedule:
    def test_profiles_match_per_step_path(self):
        fused = FluidNetworkSimulator(
            RingTopology(8, GB100, latency=1 * units.USEC))
        single = FluidNetworkSimulator(
            RingTopology(8, GB100, latency=1 * units.USEC))
        steps = ([[(i, (i + 1) % 8, 1.0 * units.MB) for i in range(8)]] * 3
                 + [[], [(0, 3, 2.0 * units.MB), (1, 3, 1.0 * units.MB)],
                    [(0, 3, 4.0 * units.MB), (1, 3, 2.0 * units.MB)]])
        profiles = fused.run_schedule(steps)
        for step, prof in zip(steps, profiles):
            want = single.step_profile(step)
            assert prof.pairs == want.pairs
            assert np.array_equal(prof.finish_times, want.finish_times)
            assert np.array_equal(prof.latencies, want.latencies)

    def test_counters_match_per_step_path(self):
        """Fused execution advances the cache counters exactly as the
        per-step loop does (warm/cold observability is unchanged)."""
        fused = FluidNetworkSimulator(RingTopology(8, GB100))
        loop = FluidNetworkSimulator(RingTopology(8, GB100))
        steps = ([[(i, (i + 1) % 8, 1.0) for i in range(8)]] * 4
                 + [[(0, 2, 1.0)], [(i, (i + 1) % 8, 1.0)
                                    for i in range(8)]])
        assert fused.step_time_many(steps) == \
            [loop.step_time(s) for s in steps]
        fi, li = fused.pattern_cache_info(), loop.pattern_cache_info()
        assert (fi.hits, fi.misses) == (li.hits, li.misses)

    def test_scaled_repeats_share_the_solve(self):
        """Same pattern at a different absolute size is a cache hit and
        a fresh rescale, exactly as on the per-step path."""
        sim = FluidNetworkSimulator(SwitchedStar(8, GB100))
        base = [(0, 1, 2.0 * units.MB), (2, 3, 1.0 * units.MB)]
        scaled = [(s, d, 10 * z) for s, d, z in base]
        t = sim.step_time_many([base, scaled])
        assert t[1] == pytest.approx(10 * t[0], rel=1e-12)
        info = sim.pattern_cache_info()
        assert info.misses == 1 and info.hits == 1

    def test_traced_simulator_uses_raw_engine(self):
        sim = FluidNetworkSimulator(SwitchedStar(4, GB100),
                                    keep_trace=True)
        steps = [[(0, 1, 125 * units.MB)], [(0, 1, 125 * units.MB)]]
        times = sim.step_time_many(steps)
        assert times[0] == times[1]
        assert sim.pattern_cache_info().lookups == 0
        assert sim.trace.total_bytes() == pytest.approx(
            2 * 2 * 125 * units.MB, rel=1e-6)


class TestSubstrateCounters:
    @pytest.mark.parametrize("name", FLUID_SUBSTRATES)
    def test_describe_reports_fluid_cache(self, name):
        """Every fluid-backed substrate surfaces pattern-cache counters."""
        sub = get_substrate(name)
        sched = generate_ring_allreduce(8)
        sub.execute(sched, Workload(data_bytes=1 * units.MB))
        params = dict(sub.describe().parameters)
        assert "fluid_cache_hits" in params
        assert "fluid_cache_misses" in params
        assert "fluid_cache_hit_rate" in params
        assert "fluid_cache_skipped" in params
        assert params["fluid_cache_misses"] >= 1
        assert params["fluid_cache_skipped"] == 0

    @pytest.mark.parametrize("name", FLUID_SUBSTRATES)
    def test_ring_allreduce_hits_pattern_cache(self, name):
        """2(N-1) identical ring steps resolve to a handful of misses.

        The OCS substrate prices each distinct step matrix once per
        live configuration, so its identical ring steps do not even
        reach the pattern cache after the first: fewer lookups than
        steps is the stronger form of the same intent there.
        """
        sub = get_substrate(name)
        sched = generate_ring_allreduce(8)
        sub.execute(sched, Workload(data_bytes=1 * units.MB))
        info = sub.fluid_cache_info()
        if name == "ocs-reconfig":
            assert info.misses >= 1 and info.lookups < sched.num_steps
        else:
            assert info.hits > info.misses

    def test_each_simulator_counts_its_own_pattern_cache(self):
        """Two systems differing only in per-step overhead build the
        same topology, and each simulator solves its steps in its own
        pattern cache; ``describe()`` sums both."""
        from repro.config import default_electrical
        from repro.core.substrates import ElectricalSubstrate

        base = default_electrical(8).with_(topology="ring")
        other = base.with_(step_latency=base.step_latency * 2)
        sub = ElectricalSubstrate(topology="ring")
        sched = generate_ring_allreduce(8)
        wl = Workload(data_bytes=1 * units.MB)
        sub._system = base
        sub.execute(sched, wl)
        first = sub.fluid_cache_info()
        sub._system = other
        sub.execute(sched, wl)
        assert sub.fluid_cache_info() == first + first
        assert len(sub._fluid_pattern_caches()) == 2

    def test_ocs_stay_time_unchanged_by_profile_path(self):
        """The OCS substrate's stay/reconfigure balance is unchanged."""
        sub = get_substrate("ocs-reconfig", system=default_ocs(8))
        sched = generate_ring_allreduce(8)
        rep = sub.execute(sched, Workload(data_bytes=64 * units.KB))
        assert rep.total_time > 0
        assert np.isfinite(rep.total_time)
