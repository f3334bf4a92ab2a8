"""Test-side references for Wrht pricing: the O(N) and per-member forms.

The library counts ring wavelength demand by sorting and sweeping arc
endpoints, summarizes a tree level from its first and last group, and
keeps only the longest arc per chunk count of a step.  These are the
forms they replace, kept so tests can pin the library against them:

* :func:`ring_link_loads` fills two ``N + 1`` difference arrays and
  prefix-sums them into per-link loads;
  :func:`dense_step_wavelength_demand` and
  :func:`dense_alltoall_actual_demand` take their peak;
* :func:`per_member_max_side` and :func:`per_member_structure_summary`
  walk every group and every member of every level;
* :func:`full_summarize` keeps every distinct ``(chunks, hops)`` pair
  of a step, and :func:`full_loop_price` prices each of them.
"""

from typing import List, Sequence, Tuple

from repro.collectives.analysis import transfer_direction
from repro.collectives.schedule import Schedule, Step
from repro.collectives.wrht import (GroupLevel, WrhtParameters,
                                    wrht_step_order, wrht_structure)
from repro.config import OpticalRingSystem, Workload
from repro.core.cost_model import WrhtCostDetail, WrhtStepSummary
from repro.errors import ConfigurationError, TopologyError
from repro.topology.ring import Direction, RingTopology


def ring_link_loads(num_nodes: int, flows) -> tuple:
    """Per-directed-link flow counts on a ring, via difference arrays.

    ``flows`` yields ``(src, dst, Direction)``.  Returns
    ``(cw_loads, ccw_loads)`` lists indexed by link start node (cw link
    ``i`` is ``i -> i+1``; ccw link ``i`` is ``i -> i-1``).  O(#flows +
    N) instead of materialising arc link objects.
    """
    n = num_nodes
    cw_diff = [0] * (n + 1)
    ccw_diff = [0] * (n + 1)

    def mark(diff, start, length):
        end = start + length
        if end <= n:
            diff[start] += 1
            diff[end] -= 1
        else:
            diff[start] += 1
            diff[n] -= 1
            diff[0] += 1
            diff[end - n] -= 1

    for src, dst, direction in flows:
        if direction is Direction.CW:
            mark(cw_diff, src, (dst - src) % n)
        else:
            length = (src - dst) % n
            mark(ccw_diff, (src - length + 1) % n, length)

    def prefix(diff):
        out = []
        cur = 0
        for d in diff[:n]:
            cur += d
            out.append(cur)
        return out

    return prefix(cw_diff), prefix(ccw_diff)


def dense_step_wavelength_demand(ring: RingTopology, step: Step) -> int:
    """``step_wavelength_demand`` from the dense per-link loads."""
    flows = [(t.src, t.dst, transfer_direction(ring, t)) for t in step]
    cw, ccw = ring_link_loads(ring.num_hosts, flows)
    return max(max(cw, default=0), max(ccw, default=0))


def dense_alltoall_actual_demand(participants: Sequence[int],
                                 num_nodes: int) -> int:
    """``alltoall_actual_demand`` from the dense per-link loads: every
    ordered pair on its shortest arc, antipodal ties split by
    ``src < dst``."""
    n = num_nodes
    flows = []
    for src in participants:
        for dst in participants:
            if src == dst:
                continue
            cw = (dst - src) % n
            ccw = (src - dst) % n
            flows.append((src, dst,
                          Direction.CW if cw < ccw or (cw == ccw and src < dst)
                          else Direction.CCW))
    cw_loads, ccw_loads = ring_link_loads(n, flows)
    return max(max(cw_loads, default=0), max(ccw_loads, default=0))


def per_member_max_side(level: GroupLevel) -> int:
    """``GroupLevel.max_side`` over every group."""
    worst = 0
    for g, rep in zip(level.groups, level.representatives):
        rep_pos = g.index(rep)
        worst = max(worst, rep_pos, len(g) - 1 - rep_pos)
    return worst


def per_member_structure_summary(params: WrhtParameters,
                                 bidirectional: bool) -> WrhtStepSummary:
    """The structure summary with every distinct ``(1, hops)`` pair of a
    step, from every member of every group and the dense all-to-all
    demand; raises :class:`TopologyError` where the library does."""
    n = params.num_nodes
    if n < 2:
        raise TopologyError(f"a ring needs >=2 nodes, got {n}")
    info = wrht_structure(params)
    if info.levels and not bidirectional:
        raise TopologyError("ring is unidirectional; no CCW travel")
    levels = [(per_member_max_side(level),
               tuple(sorted({(1, abs(member - rep))
                             for g, rep in zip(level.groups,
                                               level.representatives)
                             for member in g if member != rep})))
              for level in info.levels]
    middle = None
    if info.used_alltoall:
        parts = info.alltoall_participants
        hops = {(b - a) % n for a in parts for b in parts if a != b}
        if bidirectional:
            hops = {min(h, n - h) for h in hops}
            demand = dense_alltoall_actual_demand(parts, n)
        else:
            demand = len(parts) * (len(parts) - 1) // 2
        middle = (demand, tuple(sorted((1, h) for h in hops)))
    steps = [middle if i is None else levels[i]
             for i, _ in wrht_step_order(info)]
    return WrhtStepSummary(num_chunks=1,
                           demands=tuple(d for d, _ in steps),
                           loads=tuple(loads for _, loads in steps))


def full_summarize(schedule: Schedule,
                   ring: RingTopology) -> WrhtStepSummary:
    """Per step, the dense demand and every distinct ``(chunks, hops)``
    pair of its transfers."""
    demands: List[int] = []
    loads: List[Tuple[Tuple[int, int], ...]] = []
    for step in schedule.steps:
        demands.append(dense_step_wavelength_demand(ring, step))
        loads.append(tuple(sorted({
            (len(t.chunks),
             ring.distance(t.src, t.dst, transfer_direction(ring, t)))
            for t in step})))
    return WrhtStepSummary(num_chunks=schedule.num_chunks,
                           demands=tuple(demands), loads=tuple(loads))


def longest_per_chunk_count(summary: WrhtStepSummary) -> WrhtStepSummary:
    """``summary`` with each step's pairs cut to the longest hops of
    each chunk count."""
    loads = []
    for pairs in summary.loads:
        longest = {}
        for chunks, hops in pairs:
            longest[chunks] = max(hops, longest.get(chunks, hops))
        loads.append(tuple(sorted(longest.items())))
    return WrhtStepSummary(num_chunks=summary.num_chunks,
                           demands=summary.demands, loads=tuple(loads))


def full_loop_price(summary: WrhtStepSummary, system: OpticalRingSystem,
                    workload: Workload) -> WrhtCostDetail:
    """``_price`` evaluating every pair of every step."""
    step_times: List[float] = []
    stripings: List[int] = []
    chunk_bytes = workload.data_bytes / summary.num_chunks
    for demand, loads in zip(summary.demands, summary.loads):
        if demand > system.num_wavelengths:
            raise ConfigurationError(
                f"step needs {demand} wavelengths; system has "
                f"{system.num_wavelengths}")
        k = (max(1, system.num_wavelengths // demand)
             if system.allow_striping else 1)
        slowest = 0.0
        for chunks, hops in loads:
            b = chunks * chunk_bytes
            dt = b / (k * system.wavelength_rate) \
                + system.propagation_delay(hops)
            slowest = max(slowest, dt)
        step_times.append(system.tuning_time + system.step_overhead
                          + slowest)
        stripings.append(k)
    return WrhtCostDetail(step_times=tuple(step_times),
                          striping=tuple(stripings),
                          demands=summary.demands,
                          total_time=sum(step_times))
