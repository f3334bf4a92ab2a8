"""Shared in-memory caching primitives.

Every memoization layer in the repo — the optical ring's RWA cache, the
OCS fabric's demand-decomposition step cache, the fluid simulator's
pattern, compile and route caches, and the Wrht planner's step-summary
memo — uses the same two building blocks:

* :class:`LruCache` — a bounded LRU mapping with hit/miss counters;
* :class:`CacheStats` — the frozen counter snapshot those caches report
  through ``describe()`` and the CLI.

They live in this dependency-free module (only the stdlib) so that the
lowest layers (``repro.topology``) and the highest
(``repro.core.substrates``) can share one mechanism without import
cycles.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterator, Optional


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss counters of an internal memoization cache."""

    hits: int = 0
    misses: int = 0
    size: int = 0
    max_size: int = 0
    #: Values solved but refused by the admission policy (too costly to
    #: keep; see :attr:`LruCache.admit_cost_bound`).
    skipped: int = 0

    @property
    def lookups(self) -> int:
        """Total cache probes."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of probes served from the cache (0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def __add__(self, other: "CacheStats") -> "CacheStats":
        """Aggregate two counters (used when a substrate owns several
        simulators, each with its own cache)."""
        return CacheStats(hits=self.hits + other.hits,
                          misses=self.misses + other.misses,
                          size=self.size + other.size,
                          max_size=self.max_size + other.max_size,
                          skipped=self.skipped + other.skipped)


class LruCache:
    """A bounded LRU mapping with hit/miss counters.

    The one cache mechanism every memoization in the repo uses (the
    ring's RWA cache, the OCS fabric's decomposition step cache, the
    fluid pattern, compile and route caches, the Wrht step-summary
    memo): ``get`` promotes and counts, ``put`` evicts the
    least recently used entry beyond ``max_size``.  ``None`` is not
    storable (it encodes a miss).

    ``admit_cost_bound`` is an optional *admission policy*: callers that
    pass a ``cost`` to :meth:`put` (e.g. the number of flows in a step
    signature) get the value stored only when the cost is within the
    bound; over-bound values are counted in :attr:`skipped` and simply
    recomputed on the next probe.  This keeps single enormous steps
    from pinning memory.
    """

    def __init__(self, max_size: int,
                 admit_cost_bound: Optional[int] = None) -> None:
        self.max_size = max(1, int(max_size))
        self.admit_cost_bound = admit_cost_bound
        self._data: "OrderedDict[Any, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        #: Values refused by the admission policy (solved, not stored).
        self.skipped = 0

    def get(self, key: Any) -> Optional[Any]:
        """The cached value (promoted to most recent), or ``None``."""
        value = self._data.get(key)
        if value is not None:
            self.hits += 1
            self._data.move_to_end(key)
        else:
            self.misses += 1
        return value

    def put(self, key: Any, value: Any,
            cost: Optional[int] = None) -> bool:
        """Insert/refresh ``value`` (becomes most recent), evicting the
        LRU entry when over bound.

        When ``cost`` is given and exceeds :attr:`admit_cost_bound`,
        the value is *not* stored (admission policy): :attr:`skipped`
        is incremented and ``False`` returned.  Returns ``True`` when
        the value was stored.
        """
        if cost is not None and self.admit_cost_bound is not None \
                and cost > self.admit_cost_bound:
            self.skipped += 1
            return False
        self._data[key] = value
        self._data.move_to_end(key)
        if len(self._data) > self.max_size:
            self._data.popitem(last=False)
        return True

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        self._data.clear()
        self.hits = 0
        self.misses = 0
        self.skipped = 0

    def stats(self) -> CacheStats:
        """Current counter snapshot."""
        return CacheStats(hits=self.hits, misses=self.misses,
                          size=len(self._data), max_size=self.max_size,
                          skipped=self.skipped)

    def values(self) -> Iterator[Any]:
        """Iterate over live values (LRU-first)."""
        return iter(list(self._data.values()))

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Any) -> bool:
        return key in self._data
