"""The Wrht step-summary memo against pricing a fresh schedule.

``wrht_candidate_costs`` prices memoized step summaries;
``wrht_time_from_schedule`` summarizes the schedule it is given.  Both
go through one pricing function, so every field must agree exactly
(``==``), cold and warm, and the planners that rank from the memo must
pick what a loop pricing a fresh schedule per candidate picks.
"""

import pytest

from repro import units
from repro.collectives.wrht import WrhtParameters, generate_wrht
from repro.config import OpticalRingSystem, Workload
from repro.core.cost_model import (clear_wrht_summaries,
                                   wrht_candidate_costs, wrht_summary_stats,
                                   wrht_time, wrht_time_from_schedule)
from repro.core.planner import (VARIANTS, WrhtPlan, _variant_params,
                                default_group_sizes, feasible_group_sizes,
                                plan_table, plan_wrht)
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.errors import ConfigurationError, TopologyError

NODES = (2, 3, 5, 7, 8, 16, 31, 64, 100, 128)
WAVELENGTHS = (1, 3, 8, 64)
WL = Workload(data_bytes=100 * units.MB, name="t")


def systems(n, w):
    return [OpticalRingSystem(num_nodes=n, num_wavelengths=w,
                              allow_striping=striping)
            for striping in (True, False)]


def all_params(n, w):
    return [_variant_params(n, m, w, variant)
            for m in feasible_group_sizes(n, w) for variant in VARIANTS]


@pytest.fixture(autouse=True)
def cold_memo():
    clear_wrht_summaries()
    yield
    clear_wrht_summaries()


def _key(plan):
    return (plan.predicted_time, plan.num_steps, plan.group_size)


def reference_plan(system, workload, fidelity="analytic", top_k=4):
    """The planner as a loop that generates and prices every candidate."""
    n, w = system.num_nodes, system.num_wavelengths
    plans = []
    for m in default_group_sizes(n, w):
        for variant in VARIANTS:
            params = _variant_params(n, m, w, variant)
            total, schedule, info = wrht_time(system, workload, params)
            plans.append(WrhtPlan(params, variant, schedule, info, total))
    if fidelity == "analytic":
        return min(plans, key=_key)
    substrate = OpticalRingSubstrate(system)
    simulated = [WrhtPlan(p.params, p.variant, p.schedule, p.info,
                          substrate.execute(p.schedule,
                                            workload).total_time)
                 for p in sorted(plans, key=_key)[:top_k]]
    return min(simulated, key=_key)


def same_plan(got, want):
    assert got.params == want.params
    assert got.variant == want.variant
    assert got.predicted_time == want.predicted_time
    assert got.num_steps == want.num_steps


@pytest.mark.parametrize("n", NODES)
def test_memo_prices_every_candidate_like_a_fresh_schedule(n):
    for w in WAVELENGTHS:
        params = all_params(n, w)
        schedules = [generate_wrht(p)[0] for p in params]
        for system in systems(n, w):
            clear_wrht_summaries()
            cold = wrht_candidate_costs(system, WL, params)
            assert wrht_summary_stats().misses == len(params)
            warm = wrht_candidate_costs(system, WL, params)
            assert wrht_summary_stats().hits == len(params)
            for p, sched, c, h in zip(params, schedules, cold, warm):
                want = wrht_time_from_schedule(sched, system, WL)
                for field in ("step_times", "striping", "demands",
                              "total_time"):
                    assert getattr(c, field) == getattr(want, field), (p,
                                                                       field)
                    assert getattr(h, field) == getattr(want, field), (p,
                                                                       field)


@pytest.mark.parametrize("n", NODES)
def test_planners_match_a_fresh_schedule_per_candidate(n):
    for w in WAVELENGTHS:
        for system in systems(n, w):
            want = reference_plan(system, WL)
            for _ in range(2):  # cold, then warm
                same_plan(plan_wrht(system, WL), want)
            rows = []
            for m in feasible_group_sizes(n, w):
                total, schedule, _ = wrht_time(
                    system, WL, _variant_params(n, m, w, "last-level"))
                rows.append((m, schedule.num_steps, total))
            assert plan_table(system, WL) == rows


@pytest.mark.parametrize("n,w", [(16, 3), (31, 8), (64, 8)])
def test_hybrid_planner_matches_a_fresh_schedule_per_candidate(n, w):
    for system in systems(n, w):
        want = reference_plan(system, WL, fidelity="hybrid")
        same_plan(plan_wrht(system, WL, fidelity="hybrid"), want)


def test_wavelength_budget_and_direction_never_share_an_entry():
    system = OpticalRingSystem(num_nodes=16, num_wavelengths=8)
    plan_table(system, WL)
    before = wrht_summary_stats()
    fewer = system.with_(num_wavelengths=3)
    plan_table(fewer, WL)
    after = wrht_summary_stats()
    assert after.hits == before.hits
    assert after.misses - before.misses == len(feasible_group_sizes(16, 3))
    # The all-to-all of 8 nodes has no direction hints: every flow takes
    # the clockwise arc on a one-way ring, so demand and hops differ.
    params = [WrhtParameters(num_nodes=8, group_size=2, num_wavelengths=64)]
    two_way = OpticalRingSystem(num_nodes=8)
    one_way = two_way.with_(bidirectional=False)
    sched = generate_wrht(params[0])[0]
    for system in (two_way, one_way, two_way, one_way):
        cost, = wrht_candidate_costs(system, WL, params)
        assert cost == wrht_time_from_schedule(sched, system, WL)
    assert (wrht_time_from_schedule(sched, one_way, WL)
            != wrht_time_from_schedule(sched, two_way, WL))
    assert wrht_summary_stats().misses - after.misses == 2


def test_unidirectional_plan_table_raises_and_is_not_cached():
    system = OpticalRingSystem(num_nodes=16, num_wavelengths=8,
                               bidirectional=False)
    for _ in range(2):
        with pytest.raises(TopologyError):
            plan_table(system, WL)
        assert wrht_summary_stats().size == 0


def test_candidates_must_match_the_ring_size():
    params = [WrhtParameters(num_nodes=8, group_size=2)]
    with pytest.raises(ConfigurationError):
        wrht_candidate_costs(OpticalRingSystem(num_nodes=16), WL, params)
    assert wrht_summary_stats().size == 0
