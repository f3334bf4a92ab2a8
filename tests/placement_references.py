"""Test-side references for the trusted placement builders.

:func:`~repro.collectives.placement.place_schedule` and
:func:`~repro.collectives.placement.overlay_schedules` assemble their
steps directly, trusting that a relabel or a disjoint union of valid
schedules stays valid.  These are the validated builds they replace:
every step goes back through :meth:`Schedule.add_step`, which re-checks
node range, chunk range and per-chunk write conflicts.  Tests pin the
trusted builders against them transfer for transfer.

:class:`PerSizePlacementEngine` is the serving engine as it placed
schedules before: one validated placement per (algorithm, nodes,
message size), although only ``wrht`` depends on the size.
"""

from typing import List, Sequence, Tuple

from repro.collectives.schedule import Schedule, Transfer
from repro.errors import ConfigurationError, ScheduleError
from repro.serving import ServingEngine


def validated_place_schedule(schedule: Schedule, nodes: Sequence[int],
                             total_nodes: int) -> Schedule:
    """:func:`place_schedule` rebuilt through ``add_step``."""
    nodes = tuple(int(n) for n in nodes)
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
    placed = Schedule(num_nodes=total_nodes, num_chunks=schedule.num_chunks,
                      name=f"{schedule.name}@{nodes[0]}")
    for step in schedule.steps:
        moved: List[Transfer] = [
            Transfer(src=nodes[t.src], dst=nodes[t.dst],
                     chunks=t.chunks, op=t.op,
                     direction_hint=t.direction_hint)
            for t in step]
        placed.add_step(moved)
    return placed


def validated_overlay_schedules(parts: Sequence[Schedule],
                                total_nodes: int, name: str) -> Schedule:
    """:func:`overlay_schedules` rebuilt through ``add_step``."""
    if not parts:
        raise ScheduleError("overlay needs >= 1 schedule")
    first = parts[0]
    seen: set = set()
    for part in parts:
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
    merged = Schedule(num_nodes=total_nodes, num_chunks=first.num_chunks,
                      name=name)
    for i in range(first.num_steps):
        transfers: List[Transfer] = []
        for part in parts:
            transfers.extend(part.steps[i].transfers)
        merged.add_step(transfers)
    return merged


class PerSizePlacementEngine(ServingEngine):
    """The serving engine with a validated placement per message size."""

    def _placed_schedule(self, algorithm: str, nodes: Tuple[int, ...],
                         message_bytes: float) -> Schedule:
        key = (algorithm, nodes, float(message_bytes))
        sched = self._schedules.get(key)
        if sched is None:
            base = self._collective_schedule(algorithm, len(nodes),
                                             message_bytes)
            sched = self._schedules[key] = validated_place_schedule(
                base, nodes, self.capacity)
        return sched
