"""The assembled TeraRack-style optical ring network.

Combines a :class:`~repro.topology.ring.RingTopology` (arc routing) with
per-segment :class:`~repro.optical.link.WaveguideLink` occupancy.  This
is the object the schedule executor and RWA operate on.

The ring's MRR tuning state is one sparse *selection* — ``{bank id:
channel set}`` for the add/drop banks that carry channels in a step
(see :meth:`OpticalRingNetwork.selection`).  A step pays the tuning
time only when its selection differs from the installed one
(:meth:`OpticalRingNetwork.retune`); no per-node object is built.
"""

from __future__ import annotations

from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from ..config import OpticalRingSystem
from ..errors import TopologyError, WavelengthAllocationError
from ..topology.ring import Direction, RingTopology
from .link import WaveguideLink

#: A sparse MRR selection: ``{bank id: channel set}``, listing only the
#: banks that carry channels (every other bank is detuned).
Selection = Dict[int, FrozenSet[int]]


class OpticalRingNetwork:
    """Stateful optical ring built from an :class:`OpticalRingSystem`."""

    def __init__(self, system: OpticalRingSystem) -> None:
        self.system = system
        self.topology = RingTopology(
            system.num_nodes,
            capacity=system.node_injection_rate,
            latency=system.hop_propagation_delay,
            bidirectional=system.bidirectional,
        )
        directions = ((Direction.CW, Direction.CCW) if system.bidirectional
                      else (Direction.CW,))
        self._direction_index = {d: i for i, d in enumerate(directions)}
        #: The installed selection (see :meth:`retune`).
        self._selection: Selection = {}
        #: One shared object per distinct channel set selected here.
        self._channel_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._links: Dict[Tuple[int, int, str], WaveguideLink] = {}
        #: Patch base for the incremental RWA path (an
        #: :class:`~repro.optical.rwa.RwaDelta`).  Only valid while the
        #: occupancy it describes is intact, so any bulk release wipes it.
        self.rwa_delta: Optional[object] = None
        #: Degraded-mode masks (see :meth:`apply_fault_state`).  Empty on
        #: a healthy ring; the RWA layer only consults them when
        #: :attr:`has_faults` is true, so the healthy hot path is
        #: untouched.
        self.failed_links: FrozenSet[Tuple[int, int]] = frozenset()
        self.failed_nodes: FrozenSet[int] = frozenset()
        self.failed_wavelengths: FrozenSet[int] = frozenset()
        n = system.num_nodes
        for i in range(n):
            self._make_link(i, (i + 1) % n, "cw")
        if system.bidirectional:
            for i in range(n):
                self._make_link(i, (i - 1) % n, "ccw")

    def _make_link(self, src: int, dst: int, direction: str) -> None:
        link = WaveguideLink(src, dst, direction,
                             self.system.num_wavelengths)
        self._links[link.ident] = link

    # -- queries -------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        """Number of ring nodes."""
        return self.system.num_nodes

    @property
    def num_wavelengths(self) -> int:
        """Wavelengths per waveguide direction."""
        return self.system.num_wavelengths

    def waveguide(self, src: int, dst: int, direction: str) -> WaveguideLink:
        """The waveguide segment ``src -> dst`` in ``direction``."""
        try:
            return self._links[(src, dst, direction)]
        except KeyError:
            raise TopologyError(
                f"no waveguide {src}->{dst} direction {direction!r}") from None

    def arc_waveguides(self, src: int, dst: int,
                       direction: Direction) -> List[WaveguideLink]:
        """Waveguide segments along the arc ``src -> dst``."""
        return [self._links[l.ident]
                for l in self.topology.arc_links(src, dst, direction)]

    def all_waveguides(self) -> List[WaveguideLink]:
        """Every waveguide segment."""
        return list(self._links.values())

    # -- MRR tuning ------------------------------------------------------------

    def selection(self, arcs: Iterable[Tuple[int, int, Direction,
                                             Sequence[int]]]) -> Selection:
        """The sparse MRR selection of one step's channel assignment.

        ``arcs`` yields ``(src, dst, direction, channels)`` per transfer:
        the source's add bank and the destination's drop bank in
        ``direction`` tune to the union of the channels of every
        transfer they serve.  Node ``i`` owns bank ids ``i * 2D + d``
        (add) and ``i * 2D + D + d`` (drop) for its ``D`` directions,
        ``d`` indexing them.  Banks that carry nothing are left out,
        and equal channel sets are shared, so memoized selections stay
        small.
        """
        per_node = 2 * len(self._direction_index)
        drop = len(self._direction_index)
        chans: Dict[int, Set[int]] = {}
        for src, dst, direction, channels in arcs:
            d = self._direction_index[direction]
            chans.setdefault(src * per_node + d, set()).update(channels)
            chans.setdefault(dst * per_node + drop + d,
                             set()).update(channels)
        shared = self._channel_sets
        out: Selection = {}
        for bank, channels in chans.items():
            key = frozenset(channels)
            out[bank] = shared.setdefault(key, key)
        return out

    def retune(self, selection: Selection) -> float:
        """Install ``selection``; returns the tuning time this costs.

        0.0 when ``selection`` equals the installed one (:meth:`reset`
        installs the empty one); otherwise the system's
        ``tuning_time`` (a ``-0.0`` setting reads as 0.0), paid once
        for the step however many banks change.  A selection only
        names channels the RWA assigned, so every bank stays within
        its ring count and the grid.
        """
        if selection == self._selection:
            return 0.0
        self._selection = selection
        return max(0.0, self.system.tuning_time)

    # -- fault masks -----------------------------------------------------------

    @property
    def has_faults(self) -> bool:
        """Whether any degraded-mode mask is currently active."""
        return bool(self.failed_links or self.failed_nodes
                    or self.failed_wavelengths)

    def apply_fault_state(self, state: object) -> bool:
        """Adopt the masks of a :class:`~repro.faults.FaultState`.

        ``failed_links`` are undirected adjacent host pairs — a fiber
        cut takes the waveguides of *both* arcs between the pair.
        Occupancy and :attr:`rwa_delta` are deliberately left intact:
        the incremental RWA path treats newly displaced requests as
        churn against the surviving occupancy.  Returns whether any
        mask actually changed.
        """
        links = frozenset((min(u, v), max(u, v))
                          for u, v in state.failed_links)
        nodes = frozenset(state.failed_nodes)
        waves = frozenset(w for w in state.failed_wavelengths
                          if w < self.num_wavelengths)
        changed = (links != self.failed_links or nodes != self.failed_nodes
                   or waves != self.failed_wavelengths)
        self.failed_links = links
        self.failed_nodes = nodes
        self.failed_wavelengths = waves
        return changed

    def clear_faults(self) -> None:
        """Drop every degraded-mode mask (back to the healthy ring)."""
        self.failed_links = frozenset()
        self.failed_nodes = frozenset()
        self.failed_wavelengths = frozenset()

    def segment_blocked(self, segment: WaveguideLink) -> bool:
        """Whether a waveguide segment is unusable under current masks."""
        u, v = segment.src, segment.dst
        if u in self.failed_nodes or v in self.failed_nodes:
            return True
        return ((u, v) if u < v else (v, u)) in self.failed_links

    def fault_key(self) -> Tuple:
        """Canonical hashable form of the masks (``()`` when healthy).

        Memoization keys append this, so cached degraded solutions are
        keyed apart from healthy ones — and healthy keys are unchanged,
        so the healthy steps of a fault-aware run still hit the entries
        that fault-free runs cached.
        """
        if not self.has_faults:
            return ()
        return (tuple(sorted(self.failed_links)),
                tuple(sorted(self.failed_nodes)),
                tuple(sorted(self.failed_wavelengths)))

    # -- occupancy ------------------------------------------------------------

    def occupy_path(self, src: int, dst: int, direction: Direction,
                    wavelengths: List[int], owner: object) -> None:
        """Claim ``wavelengths`` on every segment of the arc for ``owner``.

        All-or-nothing: on conflict, everything claimed so far is rolled
        back before the error propagates.
        """
        segments = self.arc_waveguides(src, dst, direction)
        claimed: List[Tuple[WaveguideLink, int]] = []
        try:
            for seg in segments:
                for w in wavelengths:
                    seg.occupy(w, owner)
                    claimed.append((seg, w))
        except WavelengthAllocationError:
            for seg, w in claimed:
                seg.release(w, owner)
            raise

    def release_owner(self, owner: object) -> None:
        """Release every slot owned by ``owner`` across the ring."""
        self.rwa_delta = None
        for link in self._links.values():
            link.release_owner(owner)

    def clear(self) -> None:
        """Release every slot on every segment (between steps)."""
        self.rwa_delta = None
        for link in self._links.values():
            link.clear()

    def reset(self) -> None:
        """Clear occupancy, masks and MRR tuning (between schedules)."""
        self.clear()
        self.clear_faults()
        self._selection = {}

    # -- capacity summaries ----------------------------------------------------

    def slot_capacity(self) -> int:
        """Total (segment, wavelength) slots in the ring."""
        return len(self._links) * self.system.num_wavelengths

    def occupied_slots(self) -> int:
        """Currently occupied (segment, wavelength) slots."""
        return sum(l.occupied_count() for l in self._links.values())
