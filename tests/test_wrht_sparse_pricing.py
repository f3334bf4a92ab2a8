"""Wrht pricing without N-long scans, against the forms it replaced.

Ring wavelength demand comes from one sorted sweep over arc endpoints
(:func:`~repro.collectives.analysis.ring_peak_load`), a tree level is
summarized from its first and last group, and a step summary keeps the
longest arc per chunk count.  Each must equal its O(N) or per-member
reference in ``tests/wrht_references.py`` exactly (``==``), errors
included: the sweep on random participant sets and random hinted
steps, the structure summary under hypothesis up to N = 10⁵ and on
fixed cases at N = 10⁶, and the reduced pricing on random valid
systems, zero and infinite node spacing included (paired only with a
per-metre delay that keeps the hop delay defined).
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives.analysis import step_wavelength_demand
from repro.collectives.hierarchical_ring import generate_hierarchical_ring
from repro.collectives.schedule import Schedule, Step, Transfer, TransferOp
from repro.collectives.wrht import (alltoall_actual_demand, generate_wrht,
                                    wrht_structure)
from repro.collectives.wrht_pipelined import generate_wrht_pipelined
from repro.config import OpticalRingSystem, Workload
from repro.core.cost_model import _price, _structure_summary, _summarize
from repro.core.planner import VARIANTS, _variant_params, feasible_group_sizes
from repro.errors import ConfigurationError, TopologyError
from repro.topology.ring import RingTopology

from wrht_references import (dense_alltoall_actual_demand,
                             dense_step_wavelength_demand, full_loop_price,
                             full_summarize, longest_per_chunk_count,
                             per_member_max_side,
                             per_member_structure_summary)


def _outcome(fn):
    try:
        return fn()
    except (ConfigurationError, TopologyError) as exc:
        return type(exc)


@st.composite
def ring_sizes(draw, max_nodes=10_000):
    """Any ring size, half the time even (antipodal pairs tie)."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    return n + n % 2 if draw(st.booleans()) and n < max_nodes else n


# ---------------------------------------------------------------------------
# the sparse sweep vs the dense difference arrays
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_alltoall_demand_matches_the_dense_count(data):
    n = data.draw(ring_sizes())
    parts = data.draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                               unique=True, max_size=min(n, 24)))
    if data.draw(st.booleans()):
        parts.sort()
    assert (alltoall_actual_demand(parts, n)
            == dense_alltoall_actual_demand(parts, n))


@pytest.mark.parametrize("n", [2, 3, 4, 8, 9, 16])
def test_alltoall_demand_of_every_node(n):
    parts = list(range(n))
    assert (alltoall_actual_demand(parts, n)
            == dense_alltoall_actual_demand(parts, n))


@st.composite
def hinted_steps(draw):
    n = draw(ring_sizes())
    transfers = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        src = draw(st.integers(min_value=0, max_value=n - 1))
        dst = draw(st.integers(min_value=0, max_value=n - 2))
        transfers.append(Transfer(
            src, dst + (dst >= src), range(1), TransferOp.REDUCE,
            direction_hint=draw(st.sampled_from([None, "cw", "ccw"]))))
    return n, Step(tuple(transfers))


@settings(max_examples=150, deadline=None)
@given(case=hinted_steps(), bidirectional=st.booleans())
def test_step_demand_matches_the_dense_count(case, bidirectional):
    n, step = case
    ring = RingTopology(n, 1.0, bidirectional=bidirectional)
    assert (step_wavelength_demand(ring, step)
            == dense_step_wavelength_demand(ring, step))


# ---------------------------------------------------------------------------
# the two-shape structure summary vs the per-member walk
# ---------------------------------------------------------------------------


def check_structure(params, bidirectional):
    """The two-shape summary equals the per-member one cut to the
    longest arc per chunk count, and every level's two-group
    ``max_side`` and the walk's all-to-all demand equal their full
    counts."""
    want = _outcome(lambda: longest_per_chunk_count(
        per_member_structure_summary(params, bidirectional)))
    assert _outcome(lambda: _structure_summary(params,
                                               bidirectional)) == want
    info = wrht_structure(params)
    for level in info.levels:
        assert level.max_side == per_member_max_side(level)
    if info.used_alltoall:
        assert info.alltoall_demand == dense_alltoall_actual_demand(
            info.alltoall_participants, params.num_nodes)
    else:
        assert info.alltoall_demand is None


@st.composite
def large_candidates(draw):
    n = draw(st.integers(min_value=1, max_value=100_000))
    w = draw(st.integers(min_value=1, max_value=64))
    m = draw(st.integers(min_value=2, max_value=min(max(n, 2), 2 * w + 1)))
    return _variant_params(n, m, w, draw(st.sampled_from(VARIANTS)))


@settings(max_examples=40, deadline=None)
@given(params=large_candidates(), bidirectional=st.booleans())
def test_structure_summary_matches_the_per_member_walk(params,
                                                       bidirectional):
    check_structure(params, bidirectional)


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("m", [2, 5, 129])
def test_structure_summary_at_a_million_nodes(m, variant):
    check_structure(_variant_params(10**6, m, 64, variant), True)


# ---------------------------------------------------------------------------
# longest-arc pricing vs pricing every (chunks, hops) pair
# ---------------------------------------------------------------------------

DELAYS = (st.sampled_from([0.0, math.inf])
          | st.floats(min_value=0.0, max_value=1e-3))


#: ``(node_spacing, propagation_delay_per_meter)`` pairs the system
#: accepts: an infinite one times a zero one is rejected.
SPACINGS = st.tuples(
    st.sampled_from([0.0, math.inf]) | st.floats(min_value=0.0,
                                                 max_value=1e4),
    DELAYS).filter(lambda pair: not math.isnan(pair[0] * pair[1]))


@st.composite
def systems(draw, n):
    spacing, per_meter = draw(SPACINGS)
    return OpticalRingSystem(
        num_nodes=n,
        num_wavelengths=draw(st.integers(min_value=1, max_value=64)),
        wavelength_rate=draw(st.sampled_from([math.inf])
                             | st.floats(min_value=1e-3, max_value=1e12)),
        bidirectional=draw(st.booleans()),
        tuning_time=draw(DELAYS),
        node_spacing=spacing,
        propagation_delay_per_meter=per_meter,
        allow_striping=draw(st.booleans()),
        step_overhead=draw(DELAYS))


@st.composite
def mixed_chunk_schedules(draw):
    """Steps whose transfers carry 1 to ``num_chunks`` chunks each."""
    n = draw(st.integers(min_value=2, max_value=64))
    sched = Schedule(num_nodes=n,
                     num_chunks=draw(st.integers(min_value=1, max_value=8)))
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        transfers = []
        for _ in range(draw(st.integers(min_value=1, max_value=12))):
            src = draw(st.integers(min_value=0, max_value=n - 1))
            dst = draw(st.integers(min_value=0, max_value=n - 2))
            chunks = draw(st.integers(min_value=1,
                                      max_value=sched.num_chunks))
            transfers.append(Transfer(
                src, dst + (dst >= src), range(chunks), TransferOp.REDUCE,
                direction_hint=draw(st.sampled_from([None, "cw", "ccw"]))))
        sched.add_step(transfers)
    return sched


@st.composite
def wrht_schedules(draw):
    """Wrht, pipelined Wrht (chunked steps) or the hierarchical ring."""
    kind = draw(st.sampled_from(["plain", "pipelined", "hierarchical"]))
    n = draw(st.integers(min_value=2,
                         max_value=48 if kind == "hierarchical" else 256))
    if kind == "hierarchical":
        return generate_hierarchical_ring(n, draw(st.sampled_from(
            [g for g in range(1, n + 1) if n % g == 0])))
    w = draw(st.integers(min_value=1, max_value=64))
    params = _variant_params(n, draw(st.sampled_from(
        feasible_group_sizes(n, w))), w, draw(st.sampled_from(VARIANTS)))
    if kind == "pipelined":
        return generate_wrht_pipelined(
            params, draw(st.integers(min_value=1, max_value=6)))[0]
    return generate_wrht(params)[0]


def check_price(schedule, system, workload):
    ring = RingTopology(schedule.num_nodes, 1.0,
                        bidirectional=system.bidirectional)
    want = _outcome(lambda: full_loop_price(
        full_summarize(schedule, ring), system, workload))
    got = _outcome(lambda: _price(_summarize(schedule, ring), system,
                                  workload))
    assert got == want


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_longest_arc_pricing_matches_every_pair(data):
    schedule = data.draw(st.one_of(wrht_schedules(),
                                   mixed_chunk_schedules()))
    system = data.draw(systems(schedule.num_nodes))
    workload = Workload(data_bytes=data.draw(
        st.floats(min_value=1e-3, max_value=1e12)))
    check_price(schedule, system, workload)


@pytest.mark.parametrize("per_meter,node_spacing", [
    (0.0, 0.0), (5e-9, 0.0), (5e-9, math.inf), (math.inf, math.inf)])
def test_longest_arc_pricing_at_zero_and_infinite_spacing(node_spacing,
                                                          per_meter):
    """Every accepted pair; an infinite spacing or delay paired with a
    zero one is rejected (``tests/test_config.py``)."""
    system = OpticalRingSystem(num_nodes=64, num_wavelengths=8,
                               node_spacing=node_spacing,
                               propagation_delay_per_meter=per_meter)
    for m in (2, 3, 5, 17):
        for variant in VARIANTS:
            schedule = generate_wrht(_variant_params(64, m, 8, variant))[0]
            check_price(schedule, system, Workload(data_bytes=1e8))
