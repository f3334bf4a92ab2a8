"""Wrht step summaries derived from the level structure.

``wrht_candidate_costs`` prices a memo miss from
``_structure_summary(params, bidirectional)``, which reads only
``wrht_structure(params)``; ``_summarize`` reads a generated schedule
on a ring.  The two must agree exactly (``==``), errors included, on
every feasible candidate of small rings, on the paper grid and under
hypothesis up to N = 1024.  A count guard pins that planning Fig. 2
generates only the winners' schedules.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.analysis.figure2 import PAPER_MODELS, PAPER_SCALES, figure2
from repro.collectives import wrht as wrht_module
from repro.collectives.wrht import generate_wrht, wrht_structure
from repro.config import OpticalRingSystem, Workload
from repro.core.cost_model import (_structure_summary, _summarize,
                                   clear_wrht_summaries,
                                   wrht_candidate_costs, wrht_summary_stats)
from repro.core.planner import (VARIANTS, _variant_params,
                                default_group_sizes, feasible_group_sizes)
from repro.errors import TopologyError
from repro.topology.ring import RingTopology

WAVELENGTHS = (1, 3, 8, 64)
WL = Workload(data_bytes=100 * units.MB, name="t")


@pytest.fixture(autouse=True)
def cold_memo():
    clear_wrht_summaries()
    yield
    clear_wrht_summaries()


def _outcome(fn):
    try:
        return fn()
    except TopologyError:
        return TopologyError


def check_summary(params, bidirectional):
    """Structure-derived summary == summary of the generated schedule."""
    n = params.num_nodes
    schedule = generate_wrht(params)[0]
    want = _outcome(lambda: _summarize(
        schedule, RingTopology(n, 1.0, bidirectional=bidirectional)))
    got = _outcome(lambda: _structure_summary(params, bidirectional))
    assert got == want, (params, bidirectional)
    if want is TopologyError and n >= 2:
        system = OpticalRingSystem(num_nodes=n,
                                   num_wavelengths=params.num_wavelengths,
                                   bidirectional=bidirectional)
        with pytest.raises(TopologyError):
            wrht_candidate_costs(system, WL, [params])
        assert wrht_summary_stats().size == 0


def small_grid(n):
    return [_variant_params(n, m, w, variant)
            for w in WAVELENGTHS for m in feasible_group_sizes(n, w)
            for variant in VARIANTS]


@pytest.mark.parametrize("n", range(1, 33))
def test_summary_matches_the_generated_schedule_on_small_rings(n):
    for params in small_grid(n):
        for bidirectional in (True, False):
            check_summary(params, bidirectional)


def test_error_cases_raise_and_cache_nothing():
    # N = 1 has no ring; a tree level's broadcast needs CCW links.
    for params, bidirectional in ((_variant_params(1, 2, 64, "paper"), True),
                                  (_variant_params(16, 4, 8, "tree"), False)):
        with pytest.raises(TopologyError):
            _structure_summary(params, bidirectional)
        check_summary(params, bidirectional)
    assert wrht_summary_stats().size == 0


@pytest.mark.parametrize("n", PAPER_SCALES)
def test_summary_matches_the_generated_schedule_on_the_paper_grid(n):
    for m in default_group_sizes(n, 64):
        for variant in VARIANTS:
            params = _variant_params(n, m, 64, variant)
            for bidirectional in (True, False):
                check_summary(params, bidirectional)


@st.composite
def wrht_candidates(draw):
    n = draw(st.integers(min_value=1, max_value=1024))
    w = draw(st.integers(min_value=1, max_value=64))
    m = draw(st.sampled_from(feasible_group_sizes(n, w)))
    return _variant_params(n, m, w, draw(st.sampled_from(VARIANTS)))


@settings(max_examples=60, deadline=None)
@given(params=wrht_candidates(), bidirectional=st.booleans())
def test_summary_matches_the_generated_schedule_under_hypothesis(
        params, bidirectional):
    check_summary(params, bidirectional)
    assert generate_wrht(params)[1] == wrht_structure(params)


@pytest.mark.parametrize("n", range(1, 33))
def test_generator_info_is_the_structure(n):
    for params in small_grid(n):
        info = generate_wrht(params)[1]
        structure = wrht_structure(params)
        assert info.params == structure.params
        assert info.levels == structure.levels
        assert info.alltoall_participants == structure.alltoall_participants
        assert info.final_root == structure.final_root


def test_cold_figure2_generates_only_the_winners(monkeypatch):
    calls = []
    original = wrht_module.generate_wrht

    def counting(params):
        calls.append(params)
        return original(params)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("repro")
                and getattr(module, "generate_wrht", None) is original):
            monkeypatch.setattr(module, "generate_wrht", counting)
    figure2(fidelity="analytic")
    assert len(calls) == len(PAPER_MODELS) * len(PAPER_SCALES) == 16
