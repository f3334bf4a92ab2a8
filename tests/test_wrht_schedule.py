"""Tests for the Wrht schedule generator (paper §2)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (WrhtParameters, generate_wrht,
                               verify_allreduce)
from repro.collectives.analysis import (peak_wavelength_demand,
                                        schedule_wavelength_demand)
from repro.collectives.alltoall_wdm import alltoall_wavelength_requirement
from repro.collectives.schedule import TransferOp
from repro.collectives.wrht import (alltoall_actual_demand,
                                    wrht_last_level_survivors,
                                    wrht_theoretical_steps, wrht_tree_levels)
from repro.core.cost_model import wrht_paper_step_bound
from repro.core.planner import VARIANTS, _variant_params, default_group_sizes
from repro.errors import ConfigurationError
from repro.topology import RingTopology


def params(n, m, w=64, **kw):
    return WrhtParameters(num_nodes=n, group_size=m, num_wavelengths=w, **kw)


def ring_for(n):
    return RingTopology(n, capacity=1.0, bidirectional=True)


class TestParameterValidation:
    def test_group_size_bounds(self):
        with pytest.raises(ConfigurationError):
            params(8, 1)

    def test_wavelength_budget_enforced(self):
        # floor(m/2) must fit in w
        with pytest.raises(ConfigurationError):
            params(64, 9, w=3)
        params(64, 7, w=3)  # floor(7/2)=3 fits

    def test_threshold_validation(self):
        with pytest.raises(ConfigurationError):
            params(8, 2, alltoall_threshold=1)

    def test_tree_requirement_property(self):
        assert params(64, 9).tree_wavelength_requirement == 4


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 9, 16, 27, 81, 100, 128])
    @pytest.mark.parametrize("m", [2, 3, 4, 8])
    def test_paper_rule_correct(self, n, m):
        sched, info = generate_wrht(params(n, m))
        verify_allreduce(sched, elements_per_chunk=1)

    @pytest.mark.parametrize("n", [5, 16, 100])
    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_last_level_variant_correct(self, n, m):
        sched, _ = generate_wrht(params(n, m, alltoall_threshold=m))
        verify_allreduce(sched, elements_per_chunk=1)

    @pytest.mark.parametrize("n", [5, 16, 100])
    def test_pure_tree_correct(self, n):
        sched, info = generate_wrht(params(n, 4,
                                           allow_alltoall_shortcut=False))
        verify_allreduce(sched, elements_per_chunk=1)
        assert not info.used_alltoall
        assert info.final_root is not None


class TestStructure:
    def test_single_node(self):
        sched, info = generate_wrht(params(1, 2))
        assert sched.num_steps == 0
        assert info.final_root == 0

    def test_levels_recorded(self):
        sched, info = generate_wrht(params(27, 3,
                                           allow_alltoall_shortcut=False))
        assert info.num_tree_levels == 3
        assert [len(l.groups) for l in info.levels] == [9, 3, 1]

    def test_representative_is_middle(self):
        _, info = generate_wrht(params(9, 3, allow_alltoall_shortcut=False))
        level0 = info.levels[0]
        assert level0.groups[0] == (0, 1, 2)
        assert level0.representatives[0] == 1

    def test_group_of_two_rep_is_second(self):
        _, info = generate_wrht(params(2, 2))
        # all-to-all shortcut handles p=2; force tree:
        _, info = generate_wrht(params(2, 2, allow_alltoall_shortcut=False))
        assert info.levels[0].groups == ((0, 1),)
        assert info.levels[0].representatives == (1,)

    def test_trailing_singleton_survives(self):
        # N=7, m=3 -> groups (0,1,2),(3,4,5),(6,)
        _, info = generate_wrht(params(7, 3, allow_alltoall_shortcut=False))
        level0 = info.levels[0]
        assert level0.groups[-1] == (6,)
        assert level0.representatives[-1] == 6

    def test_direction_hints_stay_in_group(self):
        sched, info = generate_wrht(params(9, 3,
                                           allow_alltoall_shortcut=False))
        step0 = sched.steps[0]
        for t in step0:
            if t.src < t.dst:
                assert t.direction_hint == "cw"
            else:
                assert t.direction_hint == "ccw"

    def test_broadcast_mirrors_reduce(self):
        sched, info = generate_wrht(params(27, 3,
                                           allow_alltoall_shortcut=False))
        n_levels = info.num_tree_levels
        assert sched.num_steps == 2 * n_levels
        reduce_ops = {t.op for s in sched.steps[:n_levels] for t in s}
        bcast_ops = {t.op for s in sched.steps[n_levels:] for t in s}
        assert reduce_ops == {TransferOp.REDUCE}
        assert bcast_ops == {TransferOp.COPY}

    def test_alltoall_participants_recorded(self):
        sched, info = generate_wrht(params(16, 4, w=64))
        assert info.used_alltoall
        assert len(info.alltoall_participants) >= 2


class TestStepCounts:
    @pytest.mark.parametrize("n,m", [(8, 2), (27, 3), (64, 4), (1024, 3),
                                     (1000, 10), (128, 5)])
    def test_generator_matches_theory_all_variants(self, n, m):
        for kw in (dict(), dict(alltoall_threshold=m),
                   dict(allow_alltoall_shortcut=False)):
            sched, _ = generate_wrht(params(n, m, **kw))
            expect = wrht_theoretical_steps(
                n, m, 64,
                allow_alltoall_shortcut=kw.get("allow_alltoall_shortcut",
                                               True),
                alltoall_threshold=kw.get("alltoall_threshold"))
            assert sched.num_steps == expect, (n, m, kw)

    def test_paper_closed_form_pure_tree(self):
        # 2*ceil(log_m N) for the no-shortcut variant when N = m^k
        for n, m in ((27, 3), (64, 4), (1024, 2)):
            sched, _ = generate_wrht(params(n, m,
                                            allow_alltoall_shortcut=False))
            assert sched.num_steps == 2 * math.ceil(
                math.log(n) / math.log(m))

    def test_paper_closed_form_with_shortcut(self):
        # 2*ceil(log_m N) - 1 with the last-level shortcut when N = m^k
        for n, m in ((27, 3), (64, 4), (256, 4)):
            sched, _ = generate_wrht(params(n, m, alltoall_threshold=m))
            assert sched.num_steps == 2 * math.ceil(
                math.log(n) / math.log(m)) - 1

    def test_last_level_survivor_formula(self):
        assert wrht_last_level_survivors(1024, 3) == \
            math.ceil(1024 / 3 ** (wrht_tree_levels(1024, 3) - 1))

    def test_tree_levels(self):
        assert wrht_tree_levels(27, 3) == 3
        assert wrht_tree_levels(28, 3) == 4
        assert wrht_tree_levels(1, 3) == 0
        with pytest.raises(ConfigurationError):
            wrht_tree_levels(8, 1)

    def test_tree_levels_are_integer_logs(self):
        """``⌈log_m N⌉`` is the smallest ``L`` with ``m^L ≥ N`` at every
        point; a float log ratio gives 4 at (125, 5) and (216, 6)."""
        for m in range(2, 130):
            levels, reach = 0, 1
            for n in range(1, 4097):
                if reach < n:
                    reach *= m
                    levels += 1
                assert wrht_tree_levels(n, m) == levels, (n, m)
                assert wrht_paper_step_bound(n, m) == 2 * levels, (n, m)
        assert wrht_last_level_survivors(125, 5) == 5
        assert wrht_last_level_survivors(216, 6) == 6


class TestWavelengthDemand:
    @pytest.mark.parametrize("n,m", [(16, 4), (32, 4), (81, 3), (125, 5),
                                     (128, 9)])
    def test_tree_steps_within_paper_bound(self, n, m):
        """Every tree step needs at most ⌊m/2⌋ wavelengths per direction."""
        sched, info = generate_wrht(params(n, m,
                                           allow_alltoall_shortcut=False))
        ring = ring_for(n)
        demands = schedule_wavelength_demand(ring, sched)
        assert max(demands) <= m // 2

    def test_levels_max_side_matches_demand(self):
        n, m = 81, 3
        sched, info = generate_wrht(params(n, m,
                                           allow_alltoall_shortcut=False))
        ring = ring_for(n)
        demands = schedule_wavelength_demand(ring, sched)
        for lvl, level in enumerate(info.levels):
            assert demands[lvl] == level.max_side

    def test_alltoall_step_within_budget(self):
        w = 64
        sched, info = generate_wrht(params(1024, 3, w=w))
        ring = ring_for(1024)
        assert peak_wavelength_demand(ring, sched) <= w

    def test_actual_demand_consistency(self):
        _, info = generate_wrht(params(1024, 3, w=64))
        parts = info.alltoall_participants
        assert alltoall_actual_demand(parts, 1024) <= 64


class TestProperties:
    @given(n=st.integers(2, 200), m=st.integers(2, 17),
           w=st.integers(8, 64),
           variant=st.sampled_from(["paper", "last", "tree"]))
    @settings(max_examples=60, deadline=None)
    def test_always_a_correct_allreduce(self, n, m, w, variant):
        if m // 2 > w:
            return
        kw = {}
        if variant == "last":
            kw["alltoall_threshold"] = m
        elif variant == "tree":
            kw["allow_alltoall_shortcut"] = False
        sched, _ = generate_wrht(params(n, m, w=w, **kw))
        verify_allreduce(sched, elements_per_chunk=1)

    @given(n=st.integers(2, 200), m=st.integers(2, 17))
    @settings(max_examples=60, deadline=None)
    def test_demand_never_exceeds_budget(self, n, m):
        w = 64
        sched, _ = generate_wrht(params(n, m, w=w))
        ring = ring_for(n)
        assert peak_wavelength_demand(ring, sched) <= w

    @given(n=st.integers(2, 300))
    @settings(max_examples=40, deadline=None)
    def test_step_count_within_paper_bound(self, n):
        m = 3
        sched, _ = generate_wrht(params(n, m, alltoall_threshold=m))
        bound = 2 * math.ceil(math.log(n) / math.log(m)) if n > 1 else 0
        assert sched.num_steps <= max(bound, 1)


#: The paper-grid candidates whose generated step count exceeds the
#: even-spread count, ``(N, m, variant): (generated, theoretical)``.
#: Each has 22 representatives after the first level, unevenly spread:
#: their all-to-all needs 66 > 64 wavelengths although ⌈22²/8⌉ = 61,
#: so the generator builds another tree level instead.
UNEVEN_SHORTCUTS = {(128, 6, "paper"): (5, 3), (256, 12, "paper"): (5, 3),
                    (512, 24, "paper"): (4, 3),
                    (512, 24, "last-level"): (4, 3)}


class TestPaperBoundsOnThePaperGrid:
    """The §2 step and wavelength bounds on every default candidate at
    N ∈ {128, 256, 512, 1024} with w = 64."""

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_step_demands_and_counts(self, n):
        ring = ring_for(n)
        for m in default_group_sizes(n, 64):
            for variant in VARIANTS:
                p = _variant_params(n, m, 64, variant)
                sched, info = generate_wrht(p)
                demands = schedule_wavelength_demand(ring, sched)
                depth = info.num_tree_levels
                for i, level in enumerate(info.levels):
                    # reduce step i and its broadcast mirror
                    assert demands[i] == demands[-1 - i] == level.max_side
                    assert level.max_side <= m // 2
                if info.used_alltoall:
                    assert demands[depth] == alltoall_actual_demand(
                        info.alltoall_participants, n) <= 64
                expect = wrht_theoretical_steps(
                    n, m, 64, p.allow_alltoall_shortcut,
                    p.alltoall_threshold)
                got = (sched.num_steps, expect)
                assert got == UNEVEN_SHORTCUTS.get((n, m, variant),
                                                   (expect, expect))
                if (n, m, variant) in UNEVEN_SHORTCUTS:
                    reps = info.levels[0].representatives
                    assert len(reps) == 22
                    assert alltoall_wavelength_requirement(22) == 61
                    assert alltoall_actual_demand(reps, n) == 66

    def test_the_grid_has_276_candidates(self):
        assert sum(len(default_group_sizes(n, 64)) * len(VARIANTS)
                   for n in (128, 256, 512, 1024)) == 276
