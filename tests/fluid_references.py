"""Test-side reference for the fluid engine's always-on pattern cache.

:class:`~repro.simulation.fluid.FluidNetworkSimulator` always memoizes
solved steps in its pattern cache, which never changes a result.  The
subclass here takes that shortcut away from outside the library, so
tests can pin the cache against the solve it replaces and the
benchmarks can time both.  The frozen pre-refactor engine the fluid
parity suite pins is ``fluid_oracle.py`` beside it.
"""

from repro.caching import LruCache
from repro.simulation.fluid import FluidNetworkSimulator


class UncachedSimulator(FluidNetworkSimulator):
    """The engine with a pattern cache that admits nothing: every step
    is solved afresh (each lookup is a miss; the compiled pattern is
    still reused)."""

    def __init__(self, topology) -> None:
        super().__init__(topology)
        self._pattern_cache = LruCache(1, admit_cost_bound=-1)
