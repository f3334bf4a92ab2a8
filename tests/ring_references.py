"""Test-side references for the optical ring's always-on shortcuts.

:class:`~repro.core.substrates.optical_ring.OpticalRingSubstrate`
always memoizes its steps and always patches the previous RWA solution
on a memo miss; neither changes a result.  These subclasses take each
shortcut away from outside the library, so tests can pin the shortcut
against the path it replaces and the benchmarks can time both.

:class:`BankedTuning` is the per-bank MRR model the ring's single
selection comparison
(:meth:`~repro.optical.ring_network.OpticalRingNetwork.retune`)
replaces: one :class:`MicroRingBank` per node, add/drop side and
direction, each retuned with its ring-count and range checks.
"""

from typing import Dict, FrozenSet, Iterable, List, Set

from repro.caching import LruCache
from repro.config import OpticalRingSystem
from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.errors import ConfigurationError


class MicroRingBank:
    """``num_rings`` MRRs filtering a ``num_channels`` grid; moving the
    bank to a new channel selection takes ``tuning_time``."""

    def __init__(self, num_rings: int, num_channels: int,
                 tuning_time: float) -> None:
        self.num_rings = num_rings
        self.num_channels = num_channels
        self.tuning_time = tuning_time
        self.selected: FrozenSet[int] = frozenset()

    def retune(self, channels: Iterable[int]) -> float:
        """Tune to ``channels``: ``tuning_time`` if the selection
        changes, else 0.0; raises past the ring count or the grid."""
        channels = frozenset(channels)
        if len(channels) > self.num_rings:
            raise ConfigurationError(
                f"cannot tune {len(channels)} channels with "
                f"{self.num_rings} rings")
        for ch in channels:
            if not 0 <= ch < self.num_channels:
                raise ConfigurationError(
                    f"channel {ch} out of range [0, {self.num_channels})")
        if channels == self.selected:
            return 0.0
        self.selected = channels
        return self.tuning_time


class BankedTuning:
    """A ring's MRR tuning state as one bank per node, add/drop side and
    direction, numbered as :meth:`OpticalRingNetwork.selection` numbers
    bank ids: node ``i``'s add banks, then its drop banks, one per
    direction."""

    def __init__(self, system: OpticalRingSystem) -> None:
        self.directions = (("cw", "ccw") if system.bidirectional
                           else ("cw",))
        w = system.num_wavelengths
        self.banks: List[MicroRingBank] = [
            MicroRingBank(w, w, system.tuning_time)
            for _ in range(2 * len(self.directions) * system.num_nodes)]

    def retune(self, tx: Dict[int, Dict[str, Set[int]]],
               rx: Dict[int, Dict[str, Set[int]]]) -> float:
        """Retune every bank to one step's channels: node ``i``'s add
        banks to ``tx[i]`` and drop banks to ``rx[i]`` (by direction
        name; absent means detuned).  Returns the max bank cost."""
        cost = 0.0
        per_node = 2 * len(self.directions)
        for bank_id, bank in enumerate(self.banks):
            node, side = divmod(bank_id, per_node)
            wanted = (tx if side < len(self.directions) else rx).get(
                node, {})
            direction = self.directions[side % len(self.directions)]
            cost = max(cost, bank.retune(wanted.get(direction, ())))
        return cost

    def state(self) -> Dict[int, FrozenSet[int]]:
        """``{bank id: channels}`` of every tuned bank: the form of an
        installed :meth:`OpticalRingNetwork.selection`."""
        return {bank_id: bank.selected
                for bank_id, bank in enumerate(self.banks) if bank.selected}


class UncachedRing(OpticalRingSubstrate):
    """The ring with both step memos admitting nothing: every step is
    ordered, routed and assigned afresh (each lookup is a miss)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._cache = LruCache(1, admit_cost_bound=-1)
        self._patterns = LruCache(1, admit_cost_bound=-1)


class FullResolveRing(OpticalRingSubstrate):
    """The ring without the delta RWA path: every memo miss is solved
    from scratch."""

    def _solve(self, net, policy, ordered, k):
        net.rwa_delta = None
        return super()._solve(net, policy, ordered, k)


class UncachedFullResolveRing(UncachedRing, FullResolveRing):
    """Neither memo nor delta path: every step is a full re-solve."""


class UncachedHierRack(HierarchicalRackSubstrate):
    """The rack hierarchy on an :class:`UncachedRing` leader ring: every
    leader step is assigned afresh on the pooled ring network, so a
    test sees the network's channel state rather than a memoized
    answer."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._ring = UncachedRing(policy=self._policy,
                                  striping=self._striping)
