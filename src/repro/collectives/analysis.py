"""Static analysis of collective schedules.

Answers the questions the paper's §2 reasons about analytically — step
counts, wavelength demand per step, bytes on the wire — directly from a
generated schedule, so the closed forms can be cross-checked against the
constructed object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from ..topology.ring import Direction, RingTopology
from .schedule import Schedule, Step, Transfer


def transfer_direction(ring: RingTopology, t: Transfer) -> Direction:
    """Direction a ring substrate routes ``t``: its hint, else shortest arc."""
    if t.direction_hint == "cw":
        return Direction.CW
    if t.direction_hint == "ccw":
        return Direction.CCW
    return ring.shortest_direction(t.src, t.dst)


def ring_peak_load(num_nodes: int,
                   flows: Iterable[Tuple[int, int, Direction]]) -> int:
    """Most of ``flows`` on any one directed link of a ``num_nodes`` ring.

    ``flows`` yields ``(src, dst, Direction)``; a flow covers every
    link of its arc (cw link ``i`` is ``i -> i+1``, ccw link ``i`` is
    ``i -> i-1``).  Each arc adds +1 at its first link index and -1
    past its last, and one sorted sweep per direction over those
    endpoints reads the peak: O(F log F) for ``F`` flows, whatever
    ``num_nodes``.
    """
    n = num_nodes
    cw: Dict[int, int] = {}
    ccw: Dict[int, int] = {}
    for src, dst, direction in flows:
        if direction is Direction.CW:  # cw links src, ..., dst-1
            change, start, end = cw, src, dst
        else:  # ccw links src, ..., dst+1: ascending from dst+1
            change, start, end = ccw, (dst + 1) % n, (src + 1) % n
        if end < start:  # wraps: [start, n) and [0, end)
            change[0] = change.get(0, 0) + 1
        change[start] = change.get(start, 0) + 1
        change[end] = change.get(end, 0) - 1
    peak = 0
    for change in (cw, ccw):
        load = 0
        for link in sorted(change):
            load += change[link]
            if load > peak:
                peak = load
    return peak


def step_wavelength_demand(ring: RingTopology, step: Step) -> int:
    """Max concurrent flows over any directed ring segment in ``step``.

    This is the minimum wavelengths-per-direction any conflict-free
    assignment needs for the step (each flow on one wavelength): the
    :func:`ring_peak_load` of its transfers, each routed by
    :func:`transfer_direction`.
    """
    return ring_peak_load(ring.num_hosts,
                          [(t.src, t.dst, transfer_direction(ring, t))
                           for t in step])


def schedule_wavelength_demand(ring: RingTopology,
                               schedule: Schedule) -> List[int]:
    """Per-step wavelength demand of the whole schedule."""
    return [step_wavelength_demand(ring, s) for s in schedule.steps]


def peak_wavelength_demand(ring: RingTopology, schedule: Schedule) -> int:
    """Worst step's demand (the schedule's feasibility requirement)."""
    demands = schedule_wavelength_demand(ring, schedule)
    return max(demands, default=0)


def max_hops_per_step(ring: RingTopology, schedule: Schedule) -> List[int]:
    """Longest arc (hop count) used in each step — the propagation bound."""
    out = []
    for step in schedule.steps:
        worst = 0
        for t in step:
            direction = transfer_direction(ring, t)
            worst = max(worst, ring.distance(t.src, t.dst, direction))
        out.append(worst)
    return out


@dataclass(frozen=True)
class ScheduleStats:
    """Summary used by reports and tests."""

    name: str
    num_nodes: int
    num_steps: int
    num_transfers: int
    bytes_per_node_factor: float  # bytes busiest node sends / payload size
    total_fraction_on_wire: float  # sum of transfer fractions


def summarize(schedule: Schedule) -> ScheduleStats:
    """Compute :class:`ScheduleStats` for ``schedule``."""
    total_fraction = 0.0
    per_node_fraction: Dict[int, float] = {}
    for step in schedule.steps:
        for t in step:
            frac = t.fraction_of(schedule.num_chunks)
            total_fraction += frac
            per_node_fraction[t.src] = per_node_fraction.get(t.src, 0.0) + frac
    return ScheduleStats(
        name=schedule.name,
        num_nodes=schedule.num_nodes,
        num_steps=schedule.num_steps,
        num_transfers=schedule.num_transfers,
        bytes_per_node_factor=max(per_node_fraction.values(), default=0.0),
        total_fraction_on_wire=total_fraction,
    )


def describe_schedule(schedule: Schedule,
                      ring: Optional[RingTopology] = None,
                      max_steps: int = 12) -> str:
    """Human-readable multi-line description (used by examples/CLI)."""
    lines = [repr(schedule)]
    for i, step in enumerate(schedule.steps):
        if i >= max_steps:
            lines.append(f"  ... ({schedule.num_steps - max_steps} more steps)")
            break
        demand = (f", lambda-demand {step_wavelength_demand(ring, step)}"
                  if ring is not None else "")
        sample = ", ".join(
            f"{t.src}->{t.dst}({t.op.value[0]})" for t in list(step)[:8])
        more = "" if len(step) <= 8 else f", +{len(step) - 8} more"
        lines.append(f"  step {i:3d}: {len(step):4d} transfers{demand} "
                     f"[{sample}{more}]")
    return "\n".join(lines)
