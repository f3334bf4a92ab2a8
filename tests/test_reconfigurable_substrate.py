"""Tests for the reconfigurable-OCS substrate (``"ocs-reconfig"``).

Covers the subsystem's acceptance criteria:

* it registers and executes arbitrary schedules;
* ``reconfiguration_delay = inf`` reproduces static-topology results
  exactly (pinned against the electrical-ring fluid substrate on a
  matched system);
* the per-step stay-vs-reconfigure choice never loses to staying, and
  an ideal (zero-delay) switch serves matching-shaped schedules on
  direct circuits;
* the decomposition step cache changes nothing but the work done, and
  its statistics surface through ``describe()``.
"""

import pytest

import repro.core.substrates.reconfigurable as ocs_substrate
import repro.topology.program as ocs_program

from repro import units
from repro.collectives.halving_doubling import generate_halving_doubling
from repro.collectives.recursive_doubling import \
    generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import (ElectricalSystem, OpticalRingSystem,
                          ReconfigurableOCSSystem, Workload, default_ocs)
from repro.core.substrates import (ElectricalSubstrate,
                                   OCSReconfigurableSubstrate,
                                   available_substrates, get_substrate)
from repro.errors import ConfigurationError
from repro.topology.program import CircuitConfig, ring_circuit_config

N = 8
WL = Workload(data_bytes=4 * units.MB, name="pinned")
RING = generate_ring_allreduce(N)
RD = generate_recursive_doubling(N)


def ocs(n=N, **kw):
    return default_ocs(n, **kw)


class TestBasics:
    def test_registered(self):
        assert "ocs-reconfig" in available_substrates()

    def test_executes_pinned_schedules(self):
        sub = get_substrate("ocs-reconfig")
        for sched in (RING, RD, generate_halving_doubling(N)):
            rep = sub.execute(sched, WL)
            assert rep.substrate == "ocs-reconfig"
            assert rep.num_steps == sched.num_steps
            assert rep.total_time > 0

    def test_wrong_system_type_rejected(self):
        with pytest.raises(ConfigurationError):
            OCSReconfigurableSubstrate(OpticalRingSystem(num_nodes=N))

    def test_bad_initial_rejected(self):
        with pytest.raises(ConfigurationError):
            OCSReconfigurableSubstrate(initial="mesh")
        with pytest.raises(ConfigurationError, match="initial"):
            OCSReconfigurableSubstrate(initial=3)

    def test_schedule_too_large_rejected(self):
        with pytest.raises(ConfigurationError,
                           match="schedule spans 16 nodes; system has 8"):
            OCSReconfigurableSubstrate(ocs()).execute(
                generate_ring_allreduce(16), WL)

    def test_initial_must_fit_port_budget(self):
        # A bidirectional ring needs 2 ports; a 1-port fabric boots the
        # unidirectional ring instead — and a custom 2-port config is
        # rejected outright.
        sub = OCSReconfigurableSubstrate(ocs(ports_per_node=1))
        assert sub.execute(RING, WL).total_time > 0
        custom = ring_circuit_config(N, bidirectional=True)
        with pytest.raises(ConfigurationError, match="initial"):
            OCSReconfigurableSubstrate(ocs(ports_per_node=1),
                                       initial=custom).execute(RING, WL)

    def test_records_topology_program(self):
        sub = OCSReconfigurableSubstrate(ocs())
        sub.execute(RD, WL)
        prog = sub.last_program
        assert prog is not None
        assert prog.num_nodes == N
        # Step 0 is neighbour exchange (stays on the boot ring); the
        # log-distance steps each install a fresh matching.
        assert prog.num_reconfigurations == RD.num_steps - 1
        for cfg in prog.configs:
            cfg.validate(N, ocs().ports_per_node)


class TestStaticDegradation:
    """delay = inf must reproduce static-topology results exactly."""

    def matched_systems(self, overhead=10 * units.USEC):
        rate = 100 * units.GBPS
        frozen = ReconfigurableOCSSystem(
            num_nodes=N, ports_per_node=2, circuit_rate=rate,
            reconfiguration_delay=float("inf"), step_overhead=overhead,
            circuit_latency=0.0)
        ele = ElectricalSystem(num_nodes=N, link_rate=rate,
                               step_latency=overhead, topology="ring")
        return frozen, ele

    def test_ring_allreduce_matches_electrical_ring_exactly(self):
        frozen, ele = self.matched_systems()
        a = OCSReconfigurableSubstrate(frozen).execute(RING, WL)
        b = ElectricalSubstrate(ele).execute(RING, WL)
        assert a.total_time == b.total_time
        assert [s.duration for s in a.steps] == \
            [s.duration for s in b.steps]

    def test_multihop_schedule_matches_electrical_ring(self):
        frozen, ele = self.matched_systems()
        a = OCSReconfigurableSubstrate(frozen).execute(RD, WL)
        b = ElectricalSubstrate(ele).execute(RD, WL)
        assert a.total_time == pytest.approx(b.total_time, rel=1e-12)

    def test_frozen_fabric_never_reconfigures(self):
        sub = OCSReconfigurableSubstrate(
            ocs(reconfiguration_delay=float("inf")))
        rep = sub.execute(RD, WL)
        assert sub.last_program.num_reconfigurations == 0
        assert all(s.tuning_time == 0.0 for s in rep.steps)
        assert rep.total_time > 0

    def test_frozen_fabric_with_disconnected_boot_raises(self):
        # One circuit only: most pairs unroutable, switching forbidden.
        lonely = CircuitConfig.of([(0, 1)])
        sub = OCSReconfigurableSubstrate(
            ocs(reconfiguration_delay=float("inf")), initial=lonely)
        with pytest.raises(ConfigurationError, match="unroutable"):
            sub.execute(RING, WL)


class TestReconfigurationChoice:
    def test_neighbour_traffic_stays_on_boot_ring(self):
        sub = OCSReconfigurableSubstrate(ocs())
        sub.execute(RING, WL)
        assert sub.last_program.num_reconfigurations == 0

    def test_ideal_switch_serves_matchings_directly(self):
        # delay=0: every RD step runs on dedicated direct circuits, so
        # each step costs exactly overhead + S/rate + circuit latency.
        system = ocs(reconfiguration_delay=0.0)
        sub = OCSReconfigurableSubstrate(system)
        rep = sub.execute(RD, WL)
        per_step = (system.step_overhead + system.circuit_latency
                    + WL.data_bytes / system.circuit_rate)
        assert rep.total_time == pytest.approx(RD.num_steps * per_step,
                                               rel=1e-12)

    def test_adaptive_never_loses_to_frozen(self):
        for delay in (0.0, 1 * units.USEC, 100 * units.USEC,
                      10 * units.MSEC):
            adaptive = OCSReconfigurableSubstrate(
                ocs(reconfiguration_delay=delay)).execute(RD, WL)
            frozen = OCSReconfigurableSubstrate(
                ocs(reconfiguration_delay=float("inf"))).execute(RD, WL)
            assert adaptive.total_time <= frozen.total_time * (1 + 1e-12)

    def test_step_components_sum_to_duration(self):
        """Both branches decompose consistently: duration is exactly
        serialization + propagation + reconfiguration + overhead, and
        stay-served steps attribute circuit latency to propagation."""
        system = ocs()
        sub = OCSReconfigurableSubstrate(system)
        for sched in (RING, RD):
            rep = sub.execute(sched, WL)
            for s in rep.steps:
                assert s.duration == pytest.approx(
                    s.serialization_time + s.propagation_time
                    + s.tuning_time + s.overhead_time, rel=1e-12)
                assert s.propagation_time > 0  # circuit_latency default

    def test_reconfiguration_reported_as_tuning(self):
        delay = 123 * units.USEC
        sub = OCSReconfigurableSubstrate(ocs(reconfiguration_delay=delay))
        rep = sub.execute(RD, WL)
        switched = [s for s in rep.steps if s.tuning_time > 0]
        assert len(switched) == sub.last_program.num_reconfigurations
        for s in switched:
            assert s.tuning_time == pytest.approx(delay)

    def test_decomposition_modes_identical_on_matchings(self,
                                                         monkeypatch):
        base = OCSReconfigurableSubstrate(ocs()).execute(RD, WL)
        # A size limit of 0 decomposes every step greedily.
        monkeypatch.setattr(ocs_program, "OPTIMAL_DECOMPOSITION_LIMIT", 0)
        greedy = OCSReconfigurableSubstrate(ocs())
        assert greedy.execute(RD, WL) == base


class TestStepCache:
    def test_cached_equals_cold(self):
        cached = OCSReconfigurableSubstrate(ocs())
        warm = cached.execute(RD, WL)
        hit = cached.execute(RD, WL)
        assert cached.step_cache_info().hits > 0
        cached.clear_step_cache()
        ref = cached.execute(RD, WL)  # every decomposition solved again
        assert warm == ref
        assert hit == ref
        info = cached.step_cache_info()
        assert info.hits == 0
        assert info.misses >= 1

    def test_cache_is_size_independent(self):
        sub = OCSReconfigurableSubstrate(ocs())
        sub.execute(RD, WL)
        before = sub.step_cache_info()
        bigger = Workload(data_bytes=32 * units.MB)
        rep = sub.execute(RD, bigger)
        after = sub.step_cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits
        assert rep == OCSReconfigurableSubstrate(ocs()).execute(RD, bigger)

    def test_clear_resets_counters(self):
        sub = OCSReconfigurableSubstrate(ocs())
        sub.execute(RD, WL)
        assert sub.step_cache_info().lookups > 0
        sub.clear_step_cache()
        info = sub.step_cache_info()
        assert info.lookups == 0 and info.size == 0

    def test_describe_surfaces_statistics(self):
        sub = OCSReconfigurableSubstrate(ocs())
        info = sub.describe()
        assert info.kind == "optical"
        assert info.parameter("step_cache_hits") == 0
        assert info.parameter("step_cache_skipped") == 0
        sub.execute(RD, WL)
        sub.execute(RD, WL)
        info = sub.describe()
        assert info.parameter("step_cache_hits") > 0
        assert info.parameter("step_cache_hit_rate") > 0
        assert info.parameter("ports_per_node") == 2

    def test_admission_bound_skips_large_steps(self, monkeypatch):
        """Steps above ``DEFAULT_STEP_CACHE_MAX_PAIRS`` distinct
        transfer pairs are decomposed but not memoized — identical
        results, nothing stored, ``step_cache_skipped`` counts them."""
        # Every RD step of N=8 exchanges 8 pairs; a bound of 4 rejects
        # them all, a bound of 8 admits them all.  The bound is read
        # when an instance is built.
        monkeypatch.setattr(ocs_substrate, "DEFAULT_STEP_CACHE_MAX_PAIRS", 4)
        bounded = OCSReconfigurableSubstrate(ocs())
        monkeypatch.setattr(ocs_substrate, "DEFAULT_STEP_CACHE_MAX_PAIRS", 8)
        admitting = OCSReconfigurableSubstrate(ocs())
        rep_b = bounded.execute(RD, WL)
        rep_a = admitting.execute(RD, WL)
        assert rep_b == rep_a
        info_b = bounded.step_cache_info()
        assert info_b.skipped > 0
        assert info_b.size == 0
        assert info_b.hits == 0  # nothing stored, so repeats re-solve
        info_a = admitting.step_cache_info()
        assert info_a.skipped == 0
        assert info_a.size > 0
        # Repeats still hit when admitted, still skip when bounded.
        bounded.execute(RD, WL)
        admitting.execute(RD, WL)
        assert bounded.step_cache_info().hits == 0
        assert bounded.step_cache_info().skipped > info_b.skipped
        assert admitting.step_cache_info().hits > 0
        assert bounded.describe().parameter("step_cache_skipped") \
            == bounded.step_cache_info().skipped
