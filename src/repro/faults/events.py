"""Typed fault events and the folded fault state.

An event is a point change (*this* link died at ``t``); the state is
the fold of all events up to now (*these* links are currently dead).
Keeping the two separate is what makes degraded execution incremental:
event loops advance a cursor over the plan and only re-derive degraded
topologies / RWA masks when the folded state actually changes.

Conventions:

* links are **undirected host pairs** ``(u, v)`` — a fiber cut takes
  both directions (and on the WDM ring, both arcs' waveguides between
  the adjacent pair);
* a failed **node** takes itself and every incident link with it;
* a lost **wavelength** models a transceiver/laser fault: channel ``w``
  becomes unusable fabric-wide until repaired (the RWA layer re-places
  displaced requests on surviving spectrum);
* an **OCS stall** is a reconfiguration that overruns: for
  ``duration`` seconds after the event no new synchronous step may
  start (steps already in flight finish).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any, FrozenSet, Optional, Tuple

from ..errors import ConfigurationError

__all__ = ["FaultKind", "FaultEvent", "FaultState", "CLEAN_STATE",
           "FaultOutcome", "FaultyRun"]


class FaultKind(str, enum.Enum):
    """The fault taxonomy (each ``*_DOWN`` has a matching ``*_UP``)."""

    LINK_DOWN = "link-down"
    LINK_UP = "link-up"
    WAVELENGTH_DOWN = "wavelength-down"
    WAVELENGTH_UP = "wavelength-up"
    NODE_DOWN = "node-down"
    NODE_UP = "node-up"
    OCS_STALL = "ocs-stall"


_LINK_KINDS = (FaultKind.LINK_DOWN, FaultKind.LINK_UP)
_WAVELENGTH_KINDS = (FaultKind.WAVELENGTH_DOWN, FaultKind.WAVELENGTH_UP)
_NODE_KINDS = (FaultKind.NODE_DOWN, FaultKind.NODE_UP)


@dataclass(frozen=True)
class FaultEvent:
    """One typed fault at a point in simulated time.

    Exactly one target field must be set, matching ``kind``: ``link``
    (an undirected host pair, normalized to sorted order) for link
    events, ``node`` for node events, ``wavelength`` for transceiver
    events.  ``duration`` is only meaningful for
    :attr:`FaultKind.OCS_STALL`.  ``time`` and ``duration`` must be
    finite.
    """

    time: float
    kind: FaultKind
    link: Optional[Tuple[int, int]] = None
    node: Optional[int] = None
    wavelength: Optional[int] = None
    duration: float = 0.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.time) or self.time < 0:
            raise ConfigurationError(
                f"fault event time must be finite and >= 0, got {self.time}")
        if not math.isfinite(self.duration):
            raise ConfigurationError(
                f"fault event duration must be finite, got {self.duration}")
        kind = FaultKind(self.kind)
        object.__setattr__(self, "kind", kind)
        targets = sum(x is not None
                      for x in (self.link, self.node, self.wavelength))
        if kind in _LINK_KINDS:
            if self.link is None or targets != 1:
                raise ConfigurationError(
                    f"{kind.value} event needs exactly a link=(u, v) target")
            u, v = (int(self.link[0]), int(self.link[1]))
            if u == v:
                raise ConfigurationError(
                    f"link fault target ({u}, {v}) is a self-loop")
            object.__setattr__(self, "link", (u, v) if u < v else (v, u))
        elif kind in _NODE_KINDS:
            if self.node is None or targets != 1:
                raise ConfigurationError(
                    f"{kind.value} event needs exactly a node target")
        elif kind in _WAVELENGTH_KINDS:
            if self.wavelength is None or targets != 1:
                raise ConfigurationError(
                    f"{kind.value} event needs exactly a wavelength target")
            if self.wavelength < 0:
                raise ConfigurationError(
                    f"wavelength target must be >= 0, got {self.wavelength}")
        else:  # OCS_STALL
            if targets != 0:
                raise ConfigurationError(
                    "ocs-stall events take no link/node/wavelength target")
            if self.duration <= 0:
                raise ConfigurationError(
                    f"ocs-stall duration must be > 0, got {self.duration}")
        if kind is not FaultKind.OCS_STALL and self.duration != 0.0:
            raise ConfigurationError(
                f"duration is only meaningful for ocs-stall events, "
                f"got duration={self.duration} on {kind.value}")

    @property
    def is_repair(self) -> bool:
        """Whether this event restores rather than breaks."""
        return self.kind in (FaultKind.LINK_UP, FaultKind.WAVELENGTH_UP,
                             FaultKind.NODE_UP)


@dataclass(frozen=True)
class FaultState:
    """Everything that is down at one instant (the fold of past events).

    Down/up transitions are set operations, so duplicate DOWNs are
    idempotent and an UP always clears its target.  ``stall_until`` is
    the latest OCS-stall horizon seen so far: no synchronous step may
    *start* before it.
    """

    failed_links: FrozenSet[Tuple[int, int]] = frozenset()
    failed_nodes: FrozenSet[int] = frozenset()
    failed_wavelengths: FrozenSet[int] = frozenset()
    stall_until: float = 0.0

    @property
    def is_clean(self) -> bool:
        """No link/node/wavelength currently failed (stall not counted —
        a stall delays steps but degrades nothing)."""
        return not (self.failed_links or self.failed_nodes
                    or self.failed_wavelengths)

    def apply(self, event: FaultEvent) -> "FaultState":
        """The state after ``event`` (pure; returns a new state)."""
        links, nodes, waves = (self.failed_links, self.failed_nodes,
                               self.failed_wavelengths)
        stall = self.stall_until
        if event.kind is FaultKind.LINK_DOWN:
            links = links | {event.link}
        elif event.kind is FaultKind.LINK_UP:
            links = links - {event.link}
        elif event.kind is FaultKind.NODE_DOWN:
            nodes = nodes | {event.node}
        elif event.kind is FaultKind.NODE_UP:
            nodes = nodes - {event.node}
        elif event.kind is FaultKind.WAVELENGTH_DOWN:
            waves = waves | {event.wavelength}
        elif event.kind is FaultKind.WAVELENGTH_UP:
            waves = waves - {event.wavelength}
        else:  # OCS_STALL
            stall = max(stall, event.time + event.duration)
        return FaultState(failed_links=links, failed_nodes=nodes,
                          failed_wavelengths=waves, stall_until=stall)

    def impaired_hosts(self, num_hosts: int) -> FrozenSet[int]:
        """Hosts that cannot currently serve work: failed nodes plus
        every endpoint of a failed link (a host whose fabric attachment
        is cut cannot participate in a collective), clipped to the host
        id range."""
        out = {n for n in self.failed_nodes if 0 <= n < num_hosts}
        for u, v in self.failed_links:
            for host in (u, v):
                if 0 <= host < num_hosts:
                    out.add(host)
        return frozenset(out)


#: The healthy state (shared immutable default).
CLEAN_STATE = FaultState()


@dataclass(frozen=True)
class FaultOutcome:
    """What degraded execution observed, alongside the timing report."""

    #: Plan events folded into the run (both faults and repairs).
    events_applied: int = 0
    #: Steps executed under a non-clean fault state.
    faults_survived: int = 0
    #: Indices of those degraded steps in the schedule.
    degraded_steps: Tuple[int, ...] = ()
    #: Extra seconds relative to the same steps on the healthy fabric.
    repair_overhead: float = 0.0
    #: Seconds of OCS-stall barrier delay included in the run.
    stall_time: float = 0.0


@dataclass(frozen=True)
class FaultyRun:
    """Result of ``execute_with_faults``: the timing report (an
    :class:`~repro.core.substrates.base.ExecutionReport`) plus the
    fault accounting."""

    report: Any
    outcome: FaultOutcome = field(default_factory=FaultOutcome)
