"""Event-calendar core of the discrete-event simulator.

A deliberately small, fully deterministic engine:

* events are ``(time, sequence, callback)`` triples in a binary heap;
* ties in time break by insertion sequence, so runs are reproducible;
* cancelling is O(1) via tombstones.

The fluid network simulator and the schedule executors are built on top.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional

from ..errors import SimulationError

Callback = Callable[[], None]


class Event:
    """A scheduled callback; ``cancel()`` makes it a no-op."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callback) -> None:
        self.time = time
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running when the event is popped."""
        self.cancelled = True
        self.callback = None

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class EventQueue:
    """Priority queue of :class:`Event` with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._counter = itertools.count()

    def push(self, time: float, callback: Callback) -> Event:
        """Schedule ``callback`` at absolute ``time``."""
        ev = Event(time, next(self._counter), callback)
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest live event."""
        while self._heap:
            ev = heapq.heappop(self._heap)
            if not ev.cancelled:
                return ev
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event, or ``None`` if empty."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0].time if self._heap else None

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)

    def __bool__(self) -> bool:
        return self.peek_time() is not None


class Simulator:
    """Drives an :class:`EventQueue` and owns the simulation clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    def schedule_at(self, time: float, callback: Callback) -> Event:
        """Schedule ``callback`` at absolute time ``time`` (>= now)."""
        if time < self._now - 1e-18:
            raise SimulationError(
                f"cannot schedule in the past: {time} < now={self._now}")
        return self._queue.push(max(time, self._now), callback)

    def schedule_after(self, delay: float, callback: Callback) -> Event:
        """Schedule ``callback`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return self._queue.push(self._now + delay, callback)

    def run(self, until: float | None = None,
            max_events: int = 50_000_000) -> float:
        """Process events until the queue drains (or ``until`` / event cap).

        Returns the final simulation time.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        try:
            processed = 0
            while True:
                t = self._queue.peek_time()
                if t is None:
                    break
                if until is not None and t > until:
                    self._now = until
                    break
                ev = self._queue.pop()
                self._now = ev.time
                callback = ev.callback
                if callback is not None:
                    callback()
                processed += 1
                if processed >= max_events:
                    raise SimulationError(
                        f"exceeded {max_events} events; likely a live-lock")
            return self._now
        finally:
            self._running = False

    def pending(self) -> int:
        """Number of live events still queued."""
        return len(self._queue)
