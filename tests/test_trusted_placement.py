"""The trusted placement builders against their validated builds.

:func:`place_schedule` and :func:`overlay_schedules` build their steps
without :meth:`Schedule.add_step`'s per-transfer checks; the checks
that stay are the O(nodes) ones on the placement and the O(parts) ones
on the overlay's shapes.  These tests pin that nothing else changed:
every registry generator (and Wrht) under random injective maps into
a wider substrate, and overlays of random disjoint placements, equal
the validated builds in ``placement_references`` transfer for transfer
(order, nodes, chunks, op and hint), and a seeded faulty optical-ring
serving run that places each collective once per node set matches the
old one-placement-per-message-size engine in every record and counter.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from placement_references import (PerSizePlacementEngine,
                                   validated_overlay_schedules,
                                   validated_place_schedule)
from repro.collectives.placement import overlay_schedules, place_schedule
from repro.collectives.registry import COLLECTIVES, generate_collective
from repro.collectives.wrht import WrhtParameters, generate_wrht
from repro.config import default_optical
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.errors import ConfigurationError, ScheduleError
from repro.faults import FaultPlan
from repro.serving import (RetryPolicy, ServingEngine, adaptive_policy,
                           poisson_traffic)

#: Every registry generator, plus Wrht (placed by the serving engine's
#: ``wrht`` arm) at a group size and budget drawn with the width.
GENERATORS = sorted(COLLECTIVES) + ["wrht"]


def _generate(name: str, ranks: int, group: int, budget: int):
    if name == "wrht":
        return generate_wrht(WrhtParameters(
            num_nodes=ranks, group_size=group, num_wavelengths=budget))[0]
    return generate_collective(name, ranks)


@st.composite
def bases(draw, max_ranks: int = 12):
    name = draw(st.sampled_from(GENERATORS))
    ranks = draw(st.integers(2 if name == "wrht" else 1, max_ranks))
    return _generate(name, ranks, draw(st.integers(2, 5)),
                     draw(st.sampled_from((2, 4, 64))))


def _rows(schedule):
    """The schedule transfer for transfer, with each field's type."""
    return [[(t.src, type(t.src), t.dst, type(t.dst), t.chunks, t.op,
              t.direction_hint) for t in step]
            for step in schedule.steps]


def assert_same(got, want) -> None:
    assert (got.name, got.num_nodes, got.num_chunks) == \
        (want.name, want.num_nodes, want.num_chunks)
    assert _rows(got) == _rows(want)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_place_matches_validated_build(data):
    base = data.draw(bases())
    total = base.num_nodes + data.draw(st.integers(0, 8))
    perm = data.draw(st.permutations(range(total)))
    cast = data.draw(st.sampled_from((int, np.int64, np.int32)))
    nodes = [cast(n) for n in perm[:base.num_nodes]]
    got = place_schedule(base, nodes, total)
    assert_same(got, validated_place_schedule(base, nodes, total))
    got.validate()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_overlay_matches_validated_build(data):
    base = data.draw(bases(max_ranks=8))
    groups = data.draw(st.integers(1, 4))
    total = groups * base.num_nodes + data.draw(st.integers(0, 6))
    perm = data.draw(st.permutations(range(total)))
    parts = [place_schedule(base, perm[g * base.num_nodes:
                                       (g + 1) * base.num_nodes], total)
             for g in range(groups)]
    got = overlay_schedules(parts, total, "composite")
    assert_same(got, validated_overlay_schedules(parts, total, "composite"))
    got.validate()


def _outcome(build):
    try:
        return "ok", build()
    except ScheduleError as exc:
        return "ScheduleError", str(exc)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_overlay_rejects_what_the_validated_build_rejects(data):
    """Parts on overlapping node sets, or of different shapes, raise the
    same :class:`ScheduleError` as the validated build."""
    a, b = data.draw(bases(max_ranks=6)), data.draw(bases(max_ranks=6))
    total = a.num_nodes + b.num_nodes + data.draw(st.integers(0, 3))
    shift = data.draw(st.integers(0, total - b.num_nodes))
    parts = [place_schedule(a, range(a.num_nodes), total),
             place_schedule(b, range(shift, shift + b.num_nodes), total)]
    got = _outcome(lambda: overlay_schedules(parts, total, "x"))
    want = _outcome(
        lambda: validated_overlay_schedules(parts, total, "x"))
    if want[0] == "ok":
        assert got[0] == "ok"
        assert_same(got[1], want[1])
    else:
        assert got == want


def test_overlay_rejects_shared_nodes_and_shape_mismatch():
    ring = generate_collective("ring", 4)
    left = place_schedule(ring, (0, 1, 2, 3), 8)
    with pytest.raises(ScheduleError, match="share nodes"):
        overlay_schedules([left, place_schedule(ring, (3, 4, 5, 6), 8)],
                          8, "x")
    rd = place_schedule(generate_collective("recursive-doubling", 4),
                        (4, 5, 6, 7), 8)
    with pytest.raises(ScheduleError, match="disagree on shape"):
        overlay_schedules([left, rd], 8, "x")


def test_overlay_rejects_a_part_wider_than_the_composite():
    """Only a part's own width bounds its node ids once the per-transfer
    range checks are gone, so a part wider than ``total_nodes`` is
    refused even where its transfers would happen to fit."""
    ring = generate_collective("ring", 4)
    wide = place_schedule(ring, (0, 1, 2, 3), 16)
    with pytest.raises(ScheduleError, match="wider than the 8-node"):
        overlay_schedules([wide], 8, "x")
    far = place_schedule(ring, (0, 1, 2, 12), 16)
    with pytest.raises(ScheduleError, match="wider than the 8-node"):
        overlay_schedules([far], 8, "x")
    with pytest.raises(ScheduleError, match="out of range"):
        validated_overlay_schedules([far], 8, "x")


@pytest.mark.parametrize("nodes", [
    [0.9, 2.2, True, 5.7],
    [0, 1, 2, 3.0],
    [0, 1, 2, True],
    [0, 1, 2, np.float64(3.0)],
    [0, 1, 2, "3"],
])
def test_place_rejects_non_integer_node_ids(nodes):
    """A float or bool node id raises instead of being truncated onto
    another node."""
    with pytest.raises(ConfigurationError, match="must be integers"):
        place_schedule(generate_collective("ring", 4), nodes, 8)


def test_place_takes_python_and_numpy_integers():
    ring = generate_collective("ring", 4)
    want = place_schedule(ring, (1, 3, 5, 7), 8)
    for nodes in (np.array([1, 3, 5, 7]), [np.int32(1), 3, np.int64(5), 7],
                  range(1, 8, 2)):
        assert_same(place_schedule(ring, nodes, 8), want)


# ---------------------------------------------------------------------------
# serving parity
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("large", ["ring", "wrht"])
def test_serving_matches_per_size_validated_placement(large):
    """A seeded faulty stream on a 16-node optical ring: placing each
    size-free collective once per node set, through the trusted
    builder, reproduces the per-size validated engine exactly.  The
    ``wrht`` arm keeps its per-size key: above 1 MB its planned group
    size follows the payload."""
    capacity = 16
    system = default_optical(capacity)
    jobs = poisson_traffic(num_jobs=40, arrival_rate=40.0, seed=11,
                           node_choices=(4, 8, 16))
    plan = FaultPlan.poisson(duration=jobs[-1].arrival_time,
                             num_nodes=capacity, seed=5, link_rate=2.0,
                             node_rate=2.0, mean_repair=0.05)

    def run(engine_cls):
        engine = engine_cls(
            substrate_name="optical-ring", system=system,
            collectives=adaptive_policy(large_algorithm=large),
            substrate=OpticalRingSubstrate(system))
        return engine, engine.run(jobs, faults=plan, retry=RetryPolicy())

    engine, got = run(ServingEngine)
    ref_engine, want = run(PerSizePlacementEngine)
    assert got.preemptions > 0
    assert got.records == want.records
    assert got.failed_jobs == want.failed_jobs
    assert got.headline() == want.headline()
    assert got.algorithm_mix == want.algorithm_mix
    assert got.cache_stats == want.cache_stats
    # The size-free arms really were placed fewer times.
    assert len(engine._schedules) < len(ref_engine._schedules)
