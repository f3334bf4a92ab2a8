"""Tests for the multi-rack hierarchical fabric (``"hier-rack"``).

Covers the acceptance criteria of the hierarchical substrate:

* :class:`~repro.topology.hierarchy.HierarchicalTopology` routes
  rack-locally, rejects cross-rack pairs, and shares shape signatures;
* the substrate maps steps to the correct level, relays cross-rack
  transfers through rack leaders, and reports per-level counters;
* **degenerate parity, bit for bit**: one rack (``G == 1``) matches
  the pure electrical substrate, singleton racks (``g == 1``) match
  the optical ring;
* the closed-form :func:`~repro.core.cost_model.hier_rack_time` is
  pinned against substrate simulation across rack shapes, payloads and
  every leader position the co-planner searches;
* ``"hier-rack"`` is registered, the ``"hier"`` comparison scenario
  sweeps rack sizes, and warm caches never change results.
"""

import pytest

from repro import units
from repro.collectives.hierarchical_ring import (
    generate_hierarchical_ring, hierarchical_ring_step_count)
from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import (ElectricalSystem, HierarchicalSystem, Workload,
                          default_group_size, default_hierarchical)
from repro.core.comparison import (EXTENDED_ALGORITHMS, compare_algorithms)
from repro.core.cost_model import hier_rack_time
from repro.core.substrates import (HierarchicalRackSubstrate,
                                   available_substrates, get_substrate)
from repro.core.topoplan import default_leader_indices
from repro.errors import ConfigurationError, TopologyError
from repro.topology.hierarchy import HierarchicalTopology
from repro.topology.switched import SwitchedStar

WL = Workload(data_bytes=4 * units.MB, name="pinned")


def hier(n=8, g=4, **kw):
    kw.setdefault("num_wavelengths", 8)
    return HierarchicalSystem(num_nodes=n, group_size=g, **kw)


class TestHierarchicalTopology:
    def test_rack_structure(self):
        topo = HierarchicalTopology(12, 4, capacity=1.0)
        assert topo.num_groups == 3
        assert topo.rack_of(0) == 0 and topo.rack_of(11) == 2
        assert topo.rack_hosts(1) == [4, 5, 6, 7]
        assert topo.switch_of(0) == -1 and topo.switch_of(2) == -3

    def test_local_route_via_rack_switch(self):
        topo = HierarchicalTopology(8, 4, capacity=1.0)
        path = topo.path(5, 6)
        assert [(l.src, l.dst) for l in path] == [(5, -2), (-2, 6)]
        assert topo.path(3, 3) == []

    def test_cross_rack_route_raises(self):
        topo = HierarchicalTopology(8, 4, capacity=1.0)
        with pytest.raises(TopologyError, match="different racks"):
            topo.path(1, 6)

    def test_one_rack_is_link_identical_to_star(self):
        hier_topo = HierarchicalTopology(6, 6, capacity=2.0, latency=1e-6)
        star = SwitchedStar(6, 2.0, latency=1e-6)
        assert sorted(l.ident for l in hier_topo.links) \
            == sorted(l.ident for l in star.links)

    def test_signature_shared_per_shape(self):
        a = HierarchicalTopology(8, 4, capacity=1.0)
        b = HierarchicalTopology(8, 4, capacity=1.0)
        c = HierarchicalTopology(8, 2, capacity=1.0)
        assert a.shape_signature() == b.shape_signature()
        assert a.shape_signature() != c.shape_signature()

    def test_bad_group_size(self):
        with pytest.raises(TopologyError):
            HierarchicalTopology(8, 3, capacity=1.0)


class TestHierarchicalSystem:
    def test_derived_structure(self):
        hs = hier(12, 3)
        assert hs.num_groups == 4
        assert hs.leaders == (2, 5, 8, 11)
        assert hs.rack_of(7) == 2 and hs.leader_of(7) == 8

    def test_optical_system_view(self):
        hs = hier(8, 2, rack_spacing=3.0)
        opt = hs.optical_system()
        assert opt.num_nodes == 4
        assert opt.node_spacing == 3.0
        assert opt.num_wavelengths == hs.num_wavelengths
        assert opt.step_overhead == hs.optical_step_overhead

    def test_electrical_system_view_is_one_rack(self):
        hs = hier(8, 2, local_link_rate=50 * units.GBPS)
        ele = hs.electrical_system()
        assert ele.num_nodes == 2  # one rack, not the whole fabric
        assert ele.link_rate == hs.local_link_rate
        assert ele.topology == "switch"

    def test_one_rack_has_no_optical_level(self):
        with pytest.raises(ConfigurationError):
            hier(8, 8).optical_system()

    def test_singleton_racks_have_no_electrical_level(self):
        with pytest.raises(ConfigurationError):
            hier(8, 1).electrical_system()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HierarchicalSystem(num_nodes=8, group_size=3)
        with pytest.raises(ConfigurationError):
            HierarchicalSystem(num_nodes=8, group_size=4,
                               local_link_rate=0)

    def test_default_group_size_most_square(self):
        assert default_group_size(16) == 4
        assert default_group_size(12) == 3
        assert default_group_size(7) == 1  # primes: every host a rack
        assert default_hierarchical(64).group_size == 8


class TestExecution:
    def test_registered(self):
        assert "hier-rack" in available_substrates()
        assert isinstance(get_substrate("hier-rack"),
                          HierarchicalRackSubstrate)

    def test_wrong_system_type_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalRackSubstrate(ElectricalSystem(num_nodes=8))

    def test_hier_collective_levels(self):
        hs = hier(8, 4)
        sub = HierarchicalRackSubstrate(hs)
        rep = sub.execute(generate_hierarchical_ring(8, 4), WL)
        assert rep.num_steps == hierarchical_ring_step_count(8, 4)
        assert rep.total_time > 0
        # 2(g-1) local steps carry no wavelength demand; 2(G-1) leader
        # steps do.
        local = [s for s in rep.steps if s.wavelength_demand == 0]
        leader = [s for s in rep.steps if s.wavelength_demand > 0]
        assert len(local) == 6 and len(leader) == 2
        info = dict(sub.describe().parameters)
        assert info["local_steps"] == 6
        assert info["leader_steps"] == 2
        assert info["mixed_steps"] == 0
        assert info["relayed_transfers"] == 0

    def test_relay_of_non_leader_cross_rack_transfers(self):
        """A flat ring all-reduce crosses rack boundaries at non-leader
        hosts; those transfers relay through the leaders (uplink +
        optical hop + downlink) instead of raising."""
        hs = hier(8, 4)
        sub = HierarchicalRackSubstrate(hs)
        rep = sub.execute(generate_ring_allreduce(8), WL)
        assert rep.total_time > 0
        info = dict(sub.describe().parameters)
        assert info["relayed_transfers"] > 0
        assert info["mixed_steps"] > 0
        # Relay steps pay both levels: electrical alpha twice (uplink +
        # downlink phases) plus the optical overhead.
        mixed = [s for s in rep.steps if s.wavelength_demand > 0
                 and s.overhead_time > hs.optical_step_overhead]
        assert mixed
        expected = (2 * hs.local_step_latency + hs.optical_step_overhead)
        assert mixed[0].overhead_time == pytest.approx(expected)

    def test_recursive_doubling_executes(self):
        hs = hier(16, 4, num_wavelengths=16)
        rep = HierarchicalRackSubstrate(hs).execute(
            generate_recursive_doubling(16), WL)
        assert rep.num_steps == 4
        assert rep.total_time > 0

    def test_schedule_larger_than_system_rejected(self):
        with pytest.raises(ConfigurationError):
            HierarchicalRackSubstrate(hier(8, 4)).execute(
                generate_ring_allreduce(16), WL)

    def test_default_system_derived_per_schedule(self):
        rep = HierarchicalRackSubstrate().execute(
            generate_hierarchical_ring(16, default_group_size(16)), WL)
        assert rep.total_time == pytest.approx(
            hier_rack_time(default_hierarchical(16), WL), rel=1e-12)

    def test_warm_caches_change_nothing(self):
        hs = hier(8, 2)
        sched = generate_hierarchical_ring(8, 2)
        sub = HierarchicalRackSubstrate(hs)
        first = sub.execute(sched, WL)
        again = sub.execute(sched, WL)
        cold = HierarchicalRackSubstrate(hs).execute(sched, WL)
        assert first.steps == again.steps == cold.steps
        assert first.total_time == again.total_time == cold.total_time
        assert sub.rwa_cache_info().hits > 0
        assert sub.fluid_cache_info().hits > 0

    def test_describe_reports_both_levels(self):
        sub = HierarchicalRackSubstrate(hier(8, 4))
        info = sub.describe()
        assert info.kind == "hierarchical"
        keys = dict(info.parameters)
        for key in ("rwa_cache_hits", "fluid_cache_hits", "local_steps",
                    "leader_steps", "group_size", "num_groups"):
            assert key in keys


class TestDegenerateParity:
    """The cross-substrate parity criteria, bit for bit."""

    def test_one_rack_matches_electrical_switch(self):
        n = 8
        hs = HierarchicalSystem(num_nodes=n, group_size=n)
        # With one rack, the intra-rack view spans the whole fabric.
        es = hs.electrical_system()
        assert es.num_nodes == n
        for sched in (generate_hierarchical_ring(n, n),
                      generate_recursive_doubling(n)):
            h = HierarchicalRackSubstrate(hs).execute(sched, WL)
            e = get_substrate("electrical-switch", es).execute(sched, WL)
            assert h.steps == e.steps
            assert h.total_time == e.total_time

    def test_singleton_racks_match_optical_ring(self):
        n = 8
        hs = hier(n, 1)
        opt = hs.optical_system()
        for striping in ("auto", "off"):
            for sched in (generate_ring_allreduce(n),
                          generate_hierarchical_ring(n, 1)):
                h = HierarchicalRackSubstrate(hs).execute(
                    sched, WL, striping=striping)
                o = get_substrate("optical-ring", opt).execute(
                    sched, WL, striping=striping)
                assert h.steps == o.steps
                assert h.total_time == o.total_time


class TestCostModelPin:
    @pytest.mark.parametrize("n,g", [(8, 2), (8, 4), (8, 8), (12, 3),
                                     (16, 1), (16, 4), (9, 3), (20, 5)])
    @pytest.mark.parametrize("mb", [0.064, 4, 100])
    def test_closed_form_matches_substrate(self, n, g, mb):
        wl = Workload(data_bytes=mb * units.MB)
        hs = HierarchicalSystem(num_nodes=n, group_size=g)
        rep = HierarchicalRackSubstrate(hs).execute(
            generate_hierarchical_ring(n, g), wl)
        assert rep.total_time == pytest.approx(hier_rack_time(hs, wl),
                                               rel=1e-12)

    @pytest.mark.parametrize("n,g,ell", [
        (n, g, ell) for n in (16, 32, 64)
        for g in range(1, n + 1) if n % g == 0
        for ell in sorted(set(default_leader_indices(g)) | {0})])
    def test_closed_form_matches_substrate_at_every_searched_leader(
            self, n, g, ell):
        """The co-planner prices ``(g, ℓ)`` cells with the closed form;
        each one it searches must equal the substrate's simulation."""
        hs = HierarchicalSystem(num_nodes=n, group_size=g, leader_index=ell)
        sched = generate_hierarchical_ring(n, g, leader_index=ell)
        sub = HierarchicalRackSubstrate(hs)
        for mb in (0.064, 4, 100):
            wl = Workload(data_bytes=mb * units.MB)
            rep = sub.execute(sched, wl)
            assert rep.total_time == pytest.approx(hier_rack_time(hs, wl),
                                                   rel=1e-12)
            assert rep.num_steps == hierarchical_ring_step_count(n, g, ell)

    def test_no_striping_variant(self):
        wl = Workload(data_bytes=4 * units.MB)
        hs = HierarchicalSystem(num_nodes=12, group_size=3,
                                allow_striping=False)
        rep = HierarchicalRackSubstrate(hs).execute(
            generate_hierarchical_ring(12, 3), wl)
        assert rep.total_time == pytest.approx(hier_rack_time(hs, wl),
                                               rel=1e-12)

    def test_degenerate_endpoints(self):
        wl = Workload(data_bytes=1 * units.MB)
        from repro.core.cost_model import ring_allreduce_time_optical
        # g == N: the electrical term only.
        hs = HierarchicalSystem(num_nodes=8, group_size=8)
        per = hs.local_step_latency + wl.data_bytes / hs.local_link_rate
        assert hier_rack_time(hs, wl) == pytest.approx(14 * per)
        # g == 1: a fully-striped optical ring over the leaders.
        hs1 = HierarchicalSystem(num_nodes=8, group_size=1)
        assert hier_rack_time(hs1, wl) == pytest.approx(
            ring_allreduce_time_optical(hs1.optical_system(), wl,
                                        striping=hs1.num_wavelengths))


class TestComparisonScenario:
    def test_hier_in_extended_algorithms(self):
        assert "hier" in EXTENDED_ALGORITHMS

    def test_scenario_sweeps_group_size(self):
        comp = compare_algorithms(16, Workload(data_bytes=1 * units.MB),
                                  algorithms=("o-ring", "wrht", "hier"))
        res = comp.results["hier"]
        assert res.substrate == "hier-rack"
        assert 16 % res.detail["group_size"] == 0
        assert res.detail["num_groups"] \
            == 16 // res.detail["group_size"]
        # The winner beats (or ties) every other divisor.
        best = min(
            hier_rack_time(default_hierarchical(16, group_size=g),
                           comp.workload)
            for g in (1, 2, 4, 8, 16))
        assert res.time_seconds == pytest.approx(best)

    def test_simulate_fidelity_matches_analytic(self):
        wl = Workload(data_bytes=1 * units.MB)
        analytic = compare_algorithms(8, wl, algorithms=("hier",))
        simulated = compare_algorithms(8, wl, algorithms=("hier",),
                                       fidelity="simulate")
        assert simulated.time("hier") == pytest.approx(
            analytic.time("hier"), rel=1e-12)
        assert simulated.results["hier"].detail \
            == analytic.results["hier"].detail


class TestGroupSweep:
    def test_rows_cover_divisors(self):
        from repro.analysis.sweeps import hier_group_sweep
        rows = hier_group_sweep(12, WL)
        assert [r.group_size for r in rows] == [1, 2, 3, 4, 6, 12]
        for r in rows:
            assert r.num_groups == 12 // r.group_size
            assert r.steps == hierarchical_ring_step_count(12,
                                                           r.group_size)
            assert r.hier_time > 0
            assert r.oring_time == rows[0].oring_time  # flat reference
            assert r.speedup_vs_oring == pytest.approx(
                r.oring_time / r.hier_time)

    def test_simulate_fidelity_pins_to_analytic(self):
        from repro.analysis.sweeps import hier_group_sweep
        wl = Workload(data_bytes=1 * units.MB)
        ana = hier_group_sweep(8, wl, group_sizes=(2, 4))
        sim = hier_group_sweep(8, wl, group_sizes=(2, 4),
                               fidelity="simulate")
        for a, s in zip(ana, sim):
            assert s.hier_time == pytest.approx(a.hier_time, rel=1e-12)
