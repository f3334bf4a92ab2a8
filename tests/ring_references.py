"""Test-side references for the optical ring's always-on shortcuts.

:class:`~repro.core.substrates.optical_ring.OpticalRingSubstrate`
always memoizes its steps and always patches the previous RWA solution
on a memo miss; neither changes a result.  These subclasses take each
shortcut away from outside the library, so tests can pin the shortcut
against the path it replaces and the benchmarks can time both.
"""

from repro.caching import LruCache
from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import OpticalRingSubstrate


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
