"""The online admission/placement scheduler.

:class:`OnlineScheduler` owns the shared substrate's node space: jobs
are *placed* onto node sets the moment capacity allows, and *queued*
otherwise — admission beyond capacity never drops, it waits.  When a
job completes its nodes return to the free pool (adjacent free ranges
coalesce) and the queue is re-scanned in policy order.

The wait queue is a heap of ``(policy key, insertion seq, job)``.
Policy keys are fixed per job, so the head is peeked and popped in
O(log n) however deep the queue gets; the insertion counter keeps
submission order among equal keys (as a stable sort would) and means
two :class:`~repro.serving.jobs.JobSpec`\\ s are never compared.

Two placement modes, because they trade queueing against interference:

* ``"contiguous"`` (default) — first-fit into the lowest contiguous
  free range.  On ring fabrics a contiguous arc keeps every
  shortest-path route inside the job's own slice, so contiguous
  neighbours do not contend — but fragmentation makes wide jobs wait;
* ``"scatter"`` — contiguous first when possible, else gather the
  lowest free fragments.  Scattered jobs start sooner, but their flows
  cross other jobs' arcs and the shared-link contention the fluid
  batch models becomes real.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Set, Tuple

from ..errors import ConfigurationError
from .jobs import JobSpec
from .policies import policy_key

__all__ = ["Placement", "OnlineScheduler"]

PLACEMENT_MODES = ("contiguous", "scatter")


@dataclass(frozen=True)
class Placement:
    """A job bound to ``nodes`` (sorted global ids; rank i = nodes[i])."""

    job: JobSpec
    nodes: Tuple[int, ...]
    start_time: float

    @property
    def offset(self) -> int:
        """Lowest node of the placement (= the offset when contiguous)."""
        return self.nodes[0]

    @property
    def is_contiguous(self) -> bool:
        """Whether the placement is one unbroken range."""
        return self.nodes[-1] - self.nodes[0] + 1 == len(self.nodes)


@dataclass
class OnlineScheduler:
    """Node-set placement with a policy-ordered wait queue."""

    capacity: int
    policy: str = "fifo"
    placement_mode: str = "contiguous"
    #: Sorted disjoint free ranges as half-open ``(start, end)`` pairs.
    _free: List[Tuple[int, int]] = field(default_factory=list)
    #: Heap of ``(policy key, insertion seq, job)``.
    _queue: List[Tuple[Tuple, int, JobSpec]] = field(default_factory=list)
    #: Nodes withdrawn from service by :meth:`fail_nodes`.
    _failed: Set[int] = field(default_factory=set)
    #: Nodes currently bound to placements (conservation counter).
    _allocated: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 2:
            raise ConfigurationError(
                f"substrate capacity must be >= 2 nodes, "
                f"got {self.capacity}")
        if self.placement_mode not in PLACEMENT_MODES:
            raise ConfigurationError(
                f"placement_mode must be one of {PLACEMENT_MODES}, "
                f"got {self.placement_mode!r}")
        self._key = policy_key(self.policy)
        self._seq = itertools.count()
        if not self._free:
            self._free = [(0, self.capacity)]

    # -- queries --------------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Jobs currently waiting for capacity."""
        return len(self._queue)

    @property
    def free_nodes(self) -> int:
        """Total unallocated nodes (may be fragmented)."""
        return sum(end - start for start, end in self._free)

    @property
    def allocated_nodes(self) -> int:
        """Nodes currently bound to placements."""
        return self._allocated

    @property
    def failed_nodes(self) -> int:
        """Nodes currently withdrawn from service."""
        return len(self._failed)

    def failed_node_ids(self) -> Tuple[int, ...]:
        """The withdrawn node ids, sorted."""
        return tuple(sorted(self._failed))

    def check_conservation(self) -> None:
        """Assert free + allocated + failed == capacity.

        Every mutation preserves this identity; a violation means nodes
        leaked (lost capacity) or were double-counted (phantom
        capacity), so the serving engine's fault tests call this after
        every event.
        """
        total = self.free_nodes + self._allocated + len(self._failed)
        if total != self.capacity:
            raise ConfigurationError(
                f"node conservation violated: free={self.free_nodes} + "
                f"allocated={self._allocated} + "
                f"failed={len(self._failed)} != capacity={self.capacity}")

    def queued_jobs(self) -> List[JobSpec]:
        """The wait queue in admission (policy) order."""
        return [job for _, _, job in sorted(self._queue)]

    # -- admission ------------------------------------------------------------

    def submit(self, job: JobSpec, now: float) -> Optional[Placement]:
        """Admit ``job`` if it fits right now, else queue it.

        Direct placement is only attempted when the wait queue is
        empty: once anything is waiting, the policy order — not
        arrival luck — decides who runs next, so the new job joins the
        queue and :meth:`admit_from_queue` places it (or not) in its
        policy position.  Otherwise a narrow late arrival could slip
        into capacity the queued head cannot use and starve it.

        Jobs wider than the whole substrate can never run and raise
        immediately (a queue they can never leave would be a silent
        hang, not scheduling).
        """
        if job.num_nodes > self.capacity:
            raise ConfigurationError(
                f"job {job.job_id} wants {job.num_nodes} nodes but the "
                f"substrate has {self.capacity}")
        nodes = self._allocate(job.num_nodes) if not self._queue else None
        if nodes is None:
            heapq.heappush(self._queue,
                           (self._key(job), next(self._seq), job))
            return None
        return Placement(job=job, nodes=nodes, start_time=now)

    def admit_from_queue(self, now: float) -> List[Placement]:
        """Place every queued job that now fits, in policy order.

        The scan is head-of-line honest: it stops at the first queued
        job (in policy order) that does not fit, so a wide job is never
        starved by narrow jobs arriving behind it.
        """
        placed: List[Placement] = []
        while self._queue:
            head = self._queue[0][2]
            nodes = self._allocate(head.num_nodes)
            if nodes is None:
                break
            heapq.heappop(self._queue)
            placed.append(Placement(job=head, nodes=nodes, start_time=now))
        return placed

    def release(self, placement: Placement) -> None:
        """Return a completed (or killed) job's nodes to the free pool."""
        self._insert_free(_runs(placement.nodes))
        self._allocated -= len(placement.nodes)

    # -- failure masking ------------------------------------------------------

    def fail_nodes(self, nodes: Iterable[int]) -> None:
        """Withdraw ``nodes`` from service (idempotent per node).

        Failed nodes leave the free pool entirely: they cannot be
        allocated until :meth:`restore_nodes` returns them.  A node
        that is currently *allocated* cannot fail here — the serving
        engine must kill (and release) the placements touching it
        first, so capacity accounting stays single-owner:
        free + allocated + failed == capacity always.
        """
        for node in sorted(set(nodes)):
            if node < 0 or node >= self.capacity:
                raise ConfigurationError(
                    f"failed node {node} outside [0, {self.capacity})")
            if node in self._failed:
                continue
            if not self._carve_free(node):
                raise ConfigurationError(
                    f"cannot fail node {node}: it is allocated — "
                    f"release its placement first")
            self._failed.add(node)

    def restore_nodes(self, nodes: Iterable[int]) -> None:
        """Return repaired ``nodes`` to the free pool (idempotent)."""
        back = [n for n in sorted(set(nodes)) if n in self._failed]
        if not back:
            return
        self._failed.difference_update(back)
        self._insert_free(_runs(tuple(back)))

    # -- internals ------------------------------------------------------------

    def _carve_free(self, node: int) -> bool:
        """Remove one node from the free pool; False if not free."""
        for idx, (start, end) in enumerate(self._free):
            if start <= node < end:
                repl = [(start, node), (node + 1, end)]
                self._free[idx:idx + 1] = [
                    (lo, hi) for lo, hi in repl if lo < hi]
                return True
        return False

    def _insert_free(self, runs: List[Tuple[int, int]]) -> None:
        """Merge half-open runs into the free pool (no overlaps)."""
        self._free.extend(runs)
        self._free.sort()
        merged: List[Tuple[int, int]] = []
        for lo, hi in self._free:
            if merged and lo <= merged[-1][1]:
                if lo < merged[-1][1]:
                    raise ConfigurationError(
                        f"double release of nodes [{lo}, "
                        f"{min(hi, merged[-1][1])})")
                merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
            else:
                merged.append((lo, hi))
        self._free = merged

    def _allocate(self, width: int) -> Optional[Tuple[int, ...]]:
        """Carve ``width`` nodes from the free pool (or ``None``).

        Contiguous first-fit at the lowest offset; in ``"scatter"``
        mode, a fragmented fallback gathers the lowest free nodes when
        no single range is wide enough.
        """
        for idx, (start, end) in enumerate(self._free):
            if end - start >= width:
                if end - start == width:
                    del self._free[idx]
                else:
                    self._free[idx] = (start + width, end)
                self._allocated += width
                return tuple(range(start, start + width))
        if self.placement_mode != "scatter" or self.free_nodes < width:
            return None
        nodes: List[int] = []
        need = width
        while need:
            start, end = self._free[0]
            take = min(need, end - start)
            nodes.extend(range(start, start + take))
            if start + take == end:
                del self._free[0]
            else:
                self._free[0] = (start + take, end)
            need -= take
        self._allocated += width
        return tuple(nodes)


def _runs(nodes: Tuple[int, ...]) -> List[Tuple[int, int]]:
    """Sorted node ids -> maximal half-open ``(start, end)`` runs."""
    runs: List[Tuple[int, int]] = []
    for n in nodes:
        if runs and n == runs[-1][1]:
            runs[-1] = (runs[-1][0], n + 1)
        else:
            runs.append((n, n + 1))
    return runs
