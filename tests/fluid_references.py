"""Test-side references for the fluid engine's always-on shortcuts.

:class:`~repro.simulation.fluid.FluidNetworkSimulator` always memoizes
solved steps in its pattern cache and always warm-starts each event's
allocation from the previous one; neither changes a result.  These
subclasses take each shortcut away from outside the library, so tests
can pin the shortcut against the path it replaces and the benchmarks
can time both.
"""

from unittest import mock

from repro.caching import LruCache
from repro.simulation import fluid as fluid_mod
from repro.simulation.flows import progressive_fill
from repro.simulation.fluid import FluidNetworkSimulator


def cold_fill(batch, active=None, *, warm=None, removed=None, added=None,
              record=False):
    """``progressive_fill`` with the warm state dropped: every solve
    refills from zero."""
    rates = progressive_fill(batch, active)
    return (rates, None) if record else rates


class UncachedSimulator(FluidNetworkSimulator):
    """The engine with a pattern cache that admits nothing: every step
    is solved afresh (each lookup is a miss; the compiled pattern is
    still reused)."""

    def __init__(self, topology) -> None:
        super().__init__(topology)
        self.use_pattern_cache(LruCache(1, admit_cost_bound=-1))


class ColdFillSimulator(FluidNetworkSimulator):
    """The engine refilling from zero at every event (no warm
    starts)."""

    def _drive(self, *args, **kwargs):
        with mock.patch.object(fluid_mod, "progressive_fill", cold_fill):
            return super()._drive(*args, **kwargs)


class UncachedColdFillSimulator(UncachedSimulator, ColdFillSimulator):
    """Neither pattern cache nor warm starts: every step is a from-zero
    solve at every event."""
