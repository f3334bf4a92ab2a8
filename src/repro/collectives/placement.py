"""Rank-to-node placement and concurrent-group composition.

Collective generators emit schedules over ranks ``0..n-1``; planners
and the serving scheduler run them on *subsets* of a shared substrate.
:func:`place_schedule` re-bases a schedule onto an explicit node set
(hoisted here from ``repro.serving.dispatch`` so the strategy
co-planner and the serving layer share one implementation), and
:func:`overlay_schedules` merges same-shape schedules over disjoint
node sets into one composite — how a :class:`~repro.models.strategies.
CollectivePhase`'s concurrent groups become a single executable
schedule (:func:`phase_schedule`).

The identity placement (one full-width group over ``0..n-1``) returns
the generator's schedule object itself, so a pure data-parallel
full-width strategy executes bit-for-bit the legacy schedule — the
parity the strategy tests pin.

Both builders trust their input schedules (built and validated by
:meth:`Schedule.add_step`) and assemble their :class:`Step`\\ s
directly.  An injective, in-range relabel of a valid schedule, and a
union of same-shape valid schedules on disjoint node sets, keep every
transfer's nodes and chunks in range and add no conflicting write, so
re-running the per-transfer checks could only repeat what the inputs
already passed; the O(parts) checks on ``nodes`` and on the parts'
shapes are what stay.
"""

from __future__ import annotations

import numbers
from typing import Callable, Sequence, Tuple

from ..errors import ConfigurationError, ScheduleError
from .schedule import Schedule, Step, Transfer

__all__ = ["place_schedule", "overlay_schedules", "phase_schedule"]


def place_schedule(schedule: Schedule, nodes: Sequence[int],
                   total_nodes: int) -> Schedule:
    """Re-base ``schedule`` onto the substrate nodes ``nodes``.

    Rank ``i`` of the collective becomes substrate node ``nodes[i]``.
    ``nodes`` is usually a contiguous range from the scheduler's
    first-fit arm, but scatter placements map ranks onto fragmented
    node sets — that is where cross-job link sharing (and hence fluid
    contention) comes from.  The identity placement (``nodes`` is
    exactly ``0..n-1`` over the full substrate) returns ``schedule``
    itself, so a job spanning the whole fabric executes the exact
    standalone schedule object — the bit-for-bit parity the serving
    tests pin.
    """
    nodes = _node_ids(nodes)
    if len(nodes) != schedule.num_nodes:
        raise ConfigurationError(
            f"placement has {len(nodes)} nodes but the schedule spans "
            f"{schedule.num_nodes} ranks")
    if len(set(nodes)) != len(nodes):
        raise ConfigurationError(f"placement nodes repeat: {nodes}")
    if min(nodes) < 0 or max(nodes) >= total_nodes:
        raise ConfigurationError(
            f"placement nodes {nodes} fall outside the "
            f"{total_nodes}-node substrate")
    if total_nodes == schedule.num_nodes and \
            nodes == tuple(range(total_nodes)):
        return schedule
    steps = [Step(tuple([Transfer(nodes[t.src], nodes[t.dst], t.chunks,
                                  t.op, t.direction_hint) for t in step]))
             for step in schedule.steps]
    return Schedule(num_nodes=total_nodes, num_chunks=schedule.num_chunks,
                    steps=steps, name=f"{schedule.name}@{nodes[0]}")


def _node_ids(nodes: Sequence[int]) -> Tuple[int, ...]:
    """``nodes`` as a tuple of ``int``: Python and numpy integers pass;
    a float, a bool or anything else raises instead of being
    truncated."""
    ids = []
    for n in nodes:
        if not isinstance(n, numbers.Integral) or isinstance(n, bool):
            raise ConfigurationError(
                f"placement node ids must be integers, got {n!r}")
        ids.append(int(n))
    return tuple(ids)


def overlay_schedules(parts: Sequence[Schedule], total_nodes: int,
                      name: str) -> Schedule:
    """Merge schedules over *disjoint* node sets into one composite.

    Every part must have the same step count and chunk count (they are
    placements of one generator output) and span no more than
    ``total_nodes`` nodes; step ``i`` of the composite is
    the union of every part's step ``i``, so the parts run concurrently
    under whatever contention physics the substrate applies.
    """
    if not parts:
        raise ScheduleError("overlay needs >= 1 schedule")
    first = parts[0]
    seen: set = set()
    for part in parts:
        if part.num_nodes > total_nodes:
            raise ScheduleError(
                f"overlay part {part.name!r} spans {part.num_nodes} "
                f"nodes, wider than the {total_nodes}-node composite")
        if part.num_steps != first.num_steps \
                or part.num_chunks != first.num_chunks:
            raise ScheduleError(
                f"overlay parts disagree on shape: {part.name!r} has "
                f"{part.num_steps} steps x {part.num_chunks} chunks, "
                f"{first.name!r} has {first.num_steps} x "
                f"{first.num_chunks}")
        touched = part.participants()
        if touched & seen:
            raise ScheduleError(
                f"overlay parts share nodes {sorted(touched & seen)}; "
                f"concurrent groups must be disjoint")
        seen |= touched
    steps = [Step(tuple(t for part in parts for t in part.steps[i]))
             for i in range(first.num_steps)]
    return Schedule(num_nodes=total_nodes, num_chunks=first.num_chunks,
                    steps=steps, name=name)


def phase_schedule(phase, generator: Callable[[int], Schedule],
                   total_nodes: int) -> Schedule:
    """The executable schedule of one :class:`~repro.models.strategies.
    CollectivePhase`: generate the collective at the phase's group
    width, place one copy per group, and overlay the copies.

    A single full-width group returns the generator's schedule object
    unchanged (the legacy path — bit-for-bit).
    """
    base = generator(phase.group_size)
    placed = [place_schedule(base, grp, total_nodes)
              for grp in phase.groups]
    if len(placed) == 1:
        return placed[0]
    return overlay_schedules(
        placed, total_nodes,
        name=f"{base.name}x{len(placed)}@{phase.name}")
