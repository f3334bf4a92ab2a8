"""Cost-model tests: closed forms pinned to full simulation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.collectives import (WrhtParameters, generate_recursive_doubling,
                               generate_ring_allreduce, generate_wrht)
from repro.config import ElectricalSystem, OpticalRingSystem, Workload
from repro.core import cost_model as cm
from repro.core.substrates import ElectricalSubstrate, OpticalRingSubstrate


def opt(n, w=16, **kw):
    return OpticalRingSystem(num_nodes=n, num_wavelengths=w, **kw)


def ele(n, **kw):
    kw.setdefault("topology", "ring")
    return ElectricalSystem(num_nodes=n, **kw)


WL = Workload(data_bytes=16 * units.MB, name="t")


class TestElectricalClosedForms:
    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_ering_matches_simulation(self, n):
        system = ele(n)
        analytic = cm.ering_time(system, WL)
        sim = ElectricalSubstrate(system).execute(
            generate_ring_allreduce(n), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 5, 12])
    def test_rd_matches_simulation(self, n):
        system = ElectricalSystem(num_nodes=n)  # switch
        analytic = cm.rd_time(system, WL)
        sim = ElectricalSubstrate(system).execute(
            generate_recursive_doubling(n), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    def test_rd_grows_with_log_n(self):
        t8 = cm.rd_time(ElectricalSystem(num_nodes=8), WL)
        t64 = cm.rd_time(ElectricalSystem(num_nodes=64), WL)
        assert t64 == pytest.approx(2 * t8, rel=1e-9)

    def test_halving_doubling_beats_rd_for_large_payloads(self):
        system = ElectricalSystem(num_nodes=64)
        assert cm.halving_doubling_time(system, WL) < cm.rd_time(system, WL)

    def test_trivial_sizes(self):
        assert cm.ering_time(ele(2), WL) > 0
        # num_nodes >= 2 enforced by config; formula guards n<=1 anyway.


class TestOpticalClosedForms:
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_oring_matches_simulation(self, n):
        system = opt(n)
        analytic = cm.oring_time(system, WL)
        sim = OpticalRingSubstrate(system, striping="off").execute(
            generate_ring_allreduce(n), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    def test_striped_ring_matches_simulation(self):
        n, w = 8, 16
        system = opt(n, w)
        analytic = cm.ring_allreduce_time_optical(system, WL, striping=w)
        sim = OpticalRingSubstrate(system, striping="auto").execute(
            generate_ring_allreduce(n), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    def test_striping_bounds_checked(self):
        with pytest.raises(Exception):
            cm.ring_allreduce_time_optical(opt(8, 4), WL, striping=5)


class TestWrhtModel:
    @pytest.mark.parametrize("n,m,w", [(8, 2, 8), (27, 3, 16), (64, 4, 16),
                                       (100, 5, 32), (128, 3, 64)])
    def test_wrht_matches_simulation(self, n, m, w):
        system = opt(n, w)
        params = WrhtParameters(num_nodes=n, group_size=m,
                                num_wavelengths=w, alltoall_threshold=m)
        analytic, sched, _ = cm.wrht_time(system, WL, params)
        sim = OpticalRingSubstrate(system).execute(sched, WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-6)

    @pytest.mark.parametrize("n,m,w", [(27, 3, 16), (100, 7, 32)])
    def test_wrht_paper_rule_matches_simulation(self, n, m, w):
        system = opt(n, w)
        params = WrhtParameters(num_nodes=n, group_size=m,
                                num_wavelengths=w)
        analytic, sched, _ = cm.wrht_time(system, WL, params)
        sim = OpticalRingSubstrate(system).execute(sched, WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-6)

    def test_striping_disabled_slows_wrht(self):
        n, m, w = 27, 3, 16
        fast_sys = opt(n, w)
        slow_sys = opt(n, w, allow_striping=False)
        params = WrhtParameters(num_nodes=n, group_size=m,
                                num_wavelengths=w, alltoall_threshold=m)
        fast, _, _ = cm.wrht_time(fast_sys, WL, params)
        slow, _, _ = cm.wrht_time(slow_sys, WL, params)
        assert slow > fast

    def test_paper_step_bound_helper(self):
        assert cm.wrht_paper_step_bound(1024, 3) == 14
        assert cm.wrht_paper_step_bound(1, 3) == 0

    def test_paper_time_no_striping(self):
        system = opt(8, 8)
        t = cm.wrht_paper_time_no_striping(system, WL, num_steps=5)
        per = (WL.data_bytes / system.wavelength_rate + system.tuning_time
               + system.step_overhead)
        assert t == pytest.approx(5 * per)


class TestScalingProperties:
    @given(nbytes=st.floats(1e3, 1e10))
    @settings(max_examples=30, deadline=None)
    def test_all_models_monotone_in_payload(self, nbytes):
        wl_small = Workload(data_bytes=nbytes)
        wl_big = Workload(data_bytes=nbytes * 2)
        e = ele(16)
        o = opt(16)
        assert cm.ering_time(e, wl_big) > cm.ering_time(e, wl_small)
        assert cm.rd_time(
            ElectricalSystem(num_nodes=16), wl_big) > cm.rd_time(
            ElectricalSystem(num_nodes=16), wl_small)
        assert cm.oring_time(o, wl_big) > cm.oring_time(o, wl_small)

    @given(w=st.integers(2, 64))
    @settings(max_examples=20, deadline=None)
    def test_wrht_never_slower_with_more_wavelengths(self, w):
        n, m = 64, 3
        wl = Workload(data_bytes=64 * units.MB)
        t_small, _, _ = cm.wrht_time(
            opt(n, w), wl, WrhtParameters(num_nodes=n, group_size=m,
                                          num_wavelengths=w,
                                          alltoall_threshold=m))
        t_big, _, _ = cm.wrht_time(
            opt(n, 2 * w), wl, WrhtParameters(num_nodes=n, group_size=m,
                                              num_wavelengths=2 * w,
                                              alltoall_threshold=m))
        assert t_big <= t_small * (1 + 1e-9)


class TestTorusClosedForm:
    """The o-torus closed form is pinned to the substrate simulation."""

    @pytest.mark.parametrize("n", [4, 8, 12, 16, 36])
    def test_matches_substrate_simulation(self, n):
        from repro.config import default_torus
        from repro.core.substrates import OpticalTorusSubstrate

        system = default_torus(n)
        analytic = cm.otorus_ring_time(system, WL)
        sim = OpticalTorusSubstrate(system).execute(
            generate_ring_allreduce(n), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    def test_respects_explicit_shape(self):
        from repro.config import OpticalTorusSystem
        from repro.core.substrates import OpticalTorusSubstrate

        system = OpticalTorusSystem(num_nodes=12, rows=2, cols=6)
        analytic = cm.otorus_ring_time(system, WL)
        sim = OpticalTorusSubstrate(system).execute(
            generate_ring_allreduce(12), WL).total_time
        assert analytic == pytest.approx(sim, rel=1e-9)

    def test_comparison_analytic_uses_closed_form(self):
        from repro.config import default_torus
        from repro.core.comparison import compare_algorithms

        wl = Workload(data_bytes=4 * units.MB)
        comp = compare_algorithms(8, wl, algorithms=("o-torus",))
        assert comp.time("o-torus") == pytest.approx(
            cm.otorus_ring_time(default_torus(8), wl), rel=1e-12)
