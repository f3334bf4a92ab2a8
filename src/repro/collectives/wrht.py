"""Wrht — Wavelength Reused Hierarchical Tree all-reduce (the paper, §2).

Schedule construction
---------------------
*Reduce stage.*  The live node set starts as all ``N`` ring positions in
ring order.  Each level partitions the live nodes into consecutive runs
of ``m`` (the last run may be shorter); the *middle* node of each run is
its representative and every other member sends its full partial vector
to it (REDUCE) in one synchronous step.  Members below the representative
travel clockwise, members above counter-clockwise, so each group's flows
stay inside the group's ring arc — groups are link-disjoint and all reuse
the same ``⌊m/2⌋`` wavelengths per direction (the paper's wavelength
requirement).

*All-to-all shortcut.*  Before building a tree level over ``p`` live
nodes, if ``⌈p²/8⌉ ≤ w`` (Liang & Shen's ring all-to-all wavelength
requirement) the level is replaced by a single all-to-all step after
which *every* live node holds the global sum — this removes one
broadcast level, giving the paper's ``2⌈log_m N⌉ − 1`` step count.

*Broadcast stage.*  The exact mirror of the tree levels, representatives
COPY-ing the result back to their group members.

:func:`wrht_structure` walks the levels once and returns that grouping
(:class:`WrhtScheduleInfo`) without building a transfer;
:func:`wrht_step_order` lays its levels out in step order, and
:func:`wrht_steps` turns that into each step's transfers
(:func:`generate_wrht` and the pipelined variant build from it), while
the analytic model prices a candidate from the same order directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import ConfigurationError
from ..topology.ring import Direction
from .alltoall_wdm import alltoall_transfers, alltoall_wavelength_requirement
from .analysis import ring_peak_load
from .schedule import Schedule, Transfer, TransferOp


@dataclass(frozen=True)
class WrhtParameters:
    """Inputs of the Wrht generator.

    ``group_size`` is the paper's ``m`` (>= 2); ``num_wavelengths`` is the
    per-direction budget ``w``; disabling ``allow_alltoall_shortcut``
    forces the pure-tree ``2⌈log_m N⌉`` variant (ablation).
    """

    num_nodes: int
    group_size: int
    num_wavelengths: int = 64
    allow_alltoall_shortcut: bool = True
    #: Additional cap on all-to-all participants: the shortcut fires only
    #: when ``p <= alltoall_threshold`` (and wavelengths suffice).  ``None``
    #: is the paper-literal rule — fire as soon as ``⌈p²/8⌉ ≤ w``.  Setting
    #: it to ``group_size`` restricts the shortcut to the last tree level
    #: (the ``m*`` reading of §2); the planner sweeps both.
    alltoall_threshold: Optional[int] = None

    def __post_init__(self) -> None:
        if self.alltoall_threshold is not None and self.alltoall_threshold < 2:
            raise ConfigurationError(
                f"alltoall_threshold must be >= 2 or None, got "
                f"{self.alltoall_threshold}")
        if self.num_nodes < 1:
            raise ConfigurationError(
                f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.group_size < 2:
            raise ConfigurationError(
                f"group_size must be >= 2, got {self.group_size}")
        if self.num_wavelengths < 1:
            raise ConfigurationError(
                f"num_wavelengths must be >= 1, got {self.num_wavelengths}")
        if self.tree_wavelength_requirement > self.num_wavelengths:
            raise ConfigurationError(
                f"group_size {self.group_size} needs "
                f"{self.tree_wavelength_requirement} wavelengths per "
                f"direction; only {self.num_wavelengths} available")

    @property
    def tree_wavelength_requirement(self) -> int:
        """The paper's per-direction tree-step requirement ``⌊m/2⌋``."""
        return self.group_size // 2


@dataclass(frozen=True)
class GroupLevel:
    """One tree level: the groups (member lists) and their representatives.

    Only :func:`wrht_structure` builds a level.  Its live nodes are
    evenly spaced but for the last, so every group but the last has the
    first one's shape: the first and last groups bound the level.
    """

    groups: Tuple[Tuple[int, ...], ...]
    representatives: Tuple[int, ...]

    def _bounding_groups(self) -> Tuple[Tuple[Tuple[int, ...], int], ...]:
        """The first and the last ``(group, representative)``."""
        return ((self.groups[0], self.representatives[0]),
                (self.groups[-1], self.representatives[-1]))

    @property
    def max_side(self) -> int:
        """Worst one-side member count = per-direction wavelength demand."""
        return max(max(g.index(rep), len(g) - 1 - g.index(rep))
                   for g, rep in self._bounding_groups())

    @property
    def max_hops(self) -> int:
        """Longest member-to-representative arc, in ring hops."""
        return max(max(rep - g[0], g[-1] - rep)
                   for g, rep in self._bounding_groups())


@dataclass
class WrhtScheduleInfo:
    """Metadata accompanying a generated Wrht schedule."""

    params: WrhtParameters
    levels: List[GroupLevel] = field(default_factory=list)
    alltoall_participants: Optional[Tuple[int, ...]] = None
    final_root: Optional[int] = None
    #: :func:`alltoall_actual_demand` of the participants, as the walk
    #: that accepted them counted it (``None`` without the shortcut).
    alltoall_demand: Optional[int] = None

    @property
    def used_alltoall(self) -> bool:
        """Whether the all-to-all shortcut terminated the reduce stage."""
        return self.alltoall_participants is not None

    @property
    def num_tree_levels(self) -> int:
        """Hierarchical levels before the shortcut / root."""
        return len(self.levels)

    @property
    def num_steps(self) -> int:
        """Steps of the schedule: a reduce and a broadcast step per
        tree level, plus the all-to-all if the shortcut fired."""
        return 2 * self.num_tree_levels + self.used_alltoall


def alltoall_actual_demand(participants: Sequence[int], num_nodes: int) -> int:
    """Exact per-direction wavelength demand of a shortest-arc all-to-all.

    The :func:`~repro.collectives.analysis.ring_peak_load` of every
    ordered participant pair routed on its shortest arc (antipodal ties
    split by ``src < dst``, matching
    :meth:`RingTopology.shortest_direction`): O(F log F) for the
    ``F = p(p-1)`` flows of ``p`` participants.  The paper's ``⌈p²/8⌉``
    is the even-spread value of this quantity — representative
    positions are not always evenly spread, so the generator checks
    both.
    """
    n = num_nodes
    parts = list(participants)
    flows = []
    for src in parts:
        for dst in parts:
            if src != dst:
                cw = (dst - src) % n
                flows.append((src, dst, Direction.CW
                              if cw < n - cw or (cw == n - cw and src < dst)
                              else Direction.CCW))
    return ring_peak_load(n, flows)


def _middle_index(group_len: int) -> int:
    """Index of the representative inside a group (the paper's
    'intermediate node'); ``len//2`` gives ⌊m/2⌋ members on the left and
    ⌈m/2⌉-1 on the right, matching the ⌊m/2⌋ wavelength requirement."""
    return group_len // 2


def _partition(live: Sequence[int], m: int) -> List[Tuple[int, ...]]:
    """Consecutive runs of ``m`` live nodes (ring order, last may be short).

    A trailing *singleton* run is kept as its own group: its node is its
    own representative and simply survives to the next level with no
    communication.  (Merging it into the predecessor would push that
    group's wavelength demand past the paper's ``⌊m/2⌋``.)  The recursion
    still terminates because ``⌈p/m⌉ < p`` for ``p ≥ 2, m ≥ 2``.
    """
    return [tuple(live[k:k + m]) for k in range(0, len(live), m)]


def wrht_structure(params: WrhtParameters) -> WrhtScheduleInfo:
    """The level walk of :func:`generate_wrht`, without any transfer.

    Returns the groups and representatives of every tree level, the
    all-to-all participants (if the shortcut fires) and the final root:
    all the analytic model needs to price the schedule.
    """
    n = params.num_nodes
    m = params.group_size
    w = params.num_wavelengths
    info = WrhtScheduleInfo(params=params)
    live: List[int] = list(range(n))
    while len(live) > 1:
        p = len(live)
        if (params.allow_alltoall_shortcut
                and alltoall_wavelength_requirement(p) <= w
                and (params.alltoall_threshold is None
                     or p <= params.alltoall_threshold)
                and (demand := alltoall_actual_demand(live, n)) <= w):
            info.alltoall_participants = tuple(live)
            info.alltoall_demand = demand
            return info
        groups = _partition(live, m)
        reps = [g[_middle_index(len(g))] for g in groups]
        info.levels.append(GroupLevel(groups=tuple(groups),
                                      representatives=tuple(reps)))
        live = reps
    info.final_root = live[0]
    return info


def _level_transfers(level: GroupLevel, reduce: bool) -> List[Transfer]:
    """One tree level's REDUCE step (members to representative) or its
    broadcast mirror (COPY back).  Ring positions in a group ascend (no
    wraparound), so flows toward the representative travel CW from below
    and CCW from above, and the mirror reverses both."""
    full = range(1)
    transfers: List[Transfer] = []
    for g, rep in zip(level.groups, level.representatives):
        rep_idx = g.index(rep)
        for pos, member in enumerate(g):
            if pos == rep_idx:
                continue
            below = pos < rep_idx
            if reduce:
                transfers.append(Transfer(
                    src=member, dst=rep, chunks=full, op=TransferOp.REDUCE,
                    direction_hint="cw" if below else "ccw"))
            else:
                transfers.append(Transfer(
                    src=rep, dst=member, chunks=full, op=TransferOp.COPY,
                    direction_hint="ccw" if below else "cw"))
    return transfers


def wrht_step_order(info: WrhtScheduleInfo,
                    ) -> Iterator[Tuple[Optional[int], bool]]:
    """The step order of the schedule ``info`` describes, one
    ``(level, reduce)`` pair per step: one reduce step per tree level
    (``level`` indexes :attr:`WrhtScheduleInfo.levels`), the all-to-all
    (``level=None``) if the shortcut fired, then the broadcast mirror
    of the levels (``reduce=False``), deepest first.  The all-to-all
    needs no mirror: every participant already holds the sum.  Yields
    :attr:`WrhtScheduleInfo.num_steps` pairs; :func:`wrht_steps` and
    the analytic model's step summary both follow it."""
    depth = len(info.levels)
    for i in range(depth):
        yield i, True
    if info.used_alltoall:
        yield None, True
    for i in reversed(range(depth)):
        yield i, False


def wrht_steps(info: WrhtScheduleInfo) -> Iterator[List[Transfer]]:
    """The transfers of each step of the schedule ``info`` describes,
    in :func:`wrht_step_order`."""
    for i, reduce in wrht_step_order(info):
        if i is None:
            yield alltoall_transfers(info.alltoall_participants, range(1))
        else:
            yield _level_transfers(info.levels[i], reduce=reduce)


def generate_wrht(params: WrhtParameters) -> Tuple[Schedule, WrhtScheduleInfo]:
    """Build the Wrht schedule; returns ``(schedule, info)``.

    The steps are :func:`wrht_steps` of :func:`wrht_structure`.
    """
    n = params.num_nodes
    sched = Schedule(num_nodes=n, num_chunks=1,
                     name=f"wrht-n{n}-m{params.group_size}"
                          f"-w{params.num_wavelengths}")
    info = wrht_structure(params)
    for step in wrht_steps(info):
        sched.add_step(step)
    return sched, info


# ---------------------------------------------------------------------------
# closed forms from the paper (§2), cross-checked against the generator in
# the test suite
# ---------------------------------------------------------------------------

def wrht_tree_levels(num_nodes: int, group_size: int) -> int:
    """``⌈log_m N⌉`` — tree levels to reach a single root.

    Counted with integer powers (the smallest ``L`` with ``m^L ≥ N``):
    the floating-point ratio of logarithms rounds up past exact powers,
    e.g. to 4 levels for ``(N, m) = (125, 5)``.
    """
    if group_size < 2:
        raise ConfigurationError(
            f"group_size must be >= 2, got {group_size}")
    levels, reach = 0, 1
    while reach < num_nodes:
        reach *= group_size
        levels += 1
    return levels


def wrht_theoretical_steps(num_nodes: int, group_size: int,
                           num_wavelengths: int,
                           allow_alltoall_shortcut: bool = True,
                           alltoall_threshold: Optional[int] = None) -> int:
    """The paper's even-spread step count: each level keeps ``⌈p/m⌉``
    of ``p`` live nodes, and the shortcut fires on ``⌈p²/8⌉ ≤ w``.

    With ``alltoall_threshold = group_size`` this reproduces the paper's
    closed forms ``2⌈log_m N⌉`` (no shortcut) and ``2⌈log_m N⌉ − 1``
    (shortcut at the last level); with ``None`` the shortcut may fire
    earlier, which can only reduce the count further.  The generator
    can exceed it: its representatives are not always evenly spread,
    and it also needs :func:`alltoall_actual_demand` ``≤ w`` (4 of the
    276 default candidates on the paper grid take more steps).
    """
    if num_nodes <= 1:
        return 0
    steps = 0
    live = num_nodes
    while live > 1:
        if (allow_alltoall_shortcut
                and alltoall_wavelength_requirement(live) <= num_wavelengths
                and (alltoall_threshold is None
                     or live <= alltoall_threshold)):
            return steps + 1  # all-to-all replaces reduce+broadcast levels
        steps += 2  # one reduce level + its broadcast mirror
        live = math.ceil(live / group_size)
    return steps


def wrht_last_level_survivors(num_nodes: int, group_size: int) -> int:
    """The paper's ``m* = ⌈N / m^{⌈log_m N⌉−1}⌉``."""
    if num_nodes <= 1:
        return num_nodes
    levels = wrht_tree_levels(num_nodes, group_size)
    return math.ceil(num_nodes / group_size ** (levels - 1))
