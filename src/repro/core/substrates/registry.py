"""String-keyed substrate registry and process-local substrate pool.

``get_substrate("optical-ring")`` constructs a fresh substrate;
``pooled_substrate(...)`` memoizes instances per (name, system, options)
so hot drivers — the comparison harness, the sweeps, the serving
engine — reuse one network object and one warm RWA cache per
configuration instead of rebuilding them per call.  The pool is
process-local and LRU-bounded.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from ...errors import ConfigurationError
from .base import Substrate

#: Factories take ``system=None`` plus substrate-specific kwargs.
SubstrateFactory = Callable[..., Substrate]

_REGISTRY: Dict[str, SubstrateFactory] = {}

#: Upper bound on distinct substrate instances kept alive per process.
_POOL_MAX = 32
_POOL: "OrderedDict[Tuple, Substrate]" = OrderedDict()


def register_substrate(name: str, factory: SubstrateFactory,
                       replace: bool = False) -> None:
    """Register ``factory`` under ``name``.

    ``factory(system=None, **kwargs)`` must return a
    :class:`~repro.core.substrates.base.Substrate`.  Re-registering an
    existing name raises unless ``replace=True`` (guards accidental
    shadowing of the built-ins).
    """
    if not name:
        raise ConfigurationError("substrate name must be non-empty")
    if name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"substrate {name!r} is already registered "
            f"(pass replace=True to override)")
    _REGISTRY[name] = factory


def available_substrates() -> Tuple[str, ...]:
    """Registered substrate names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_substrate(name: str, system: Optional[Any] = None,
                  **kwargs: Any) -> Substrate:
    """Construct the substrate registered under ``name``.

    ``system`` is the substrate's system description (each substrate
    documents which config class it accepts); ``None`` defers to the
    substrate's per-schedule defaults.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` listing what is
    registered.
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        registered = ", ".join(available_substrates()) or "<none>"
        raise ConfigurationError(
            f"unknown substrate {name!r}; registered substrates: "
            f"{registered}") from None
    return factory(system=system, **kwargs)


def pooled_substrate(name: str, system: Optional[Any] = None,
                     **kwargs: Any) -> Substrate:
    """A shared substrate instance for (``name``, ``system``, options).

    Repeated calls with equal arguments return the *same* object, so
    its network state and RWA cache stay warm across calls.  Options
    must be hashable (they are part of the pool key).
    """
    key = (name, system, tuple(sorted(kwargs.items())))
    sub = _POOL.get(key)
    if sub is None:
        sub = get_substrate(name, system=system, **kwargs)
        _POOL[key] = sub
        if len(_POOL) > _POOL_MAX:
            _POOL.popitem(last=False)
    else:
        _POOL.move_to_end(key)
    return sub


def cache_stats(substrates: Optional[Any] = None) -> Dict[str, Dict[str, Any]]:
    """Consolidated cache counters, one row per cache kind.

    Substrates self-report their memoization counters through
    ``describe()`` parameters named ``<kind>_cache_<stat>`` (e.g.
    ``rwa_cache_hits``); this folds those across ``substrates`` (any
    iterable of :class:`~repro.core.substrates.base.Substrate`;
    default: every pooled instance) into
    ``{kind: {"hits": ..., "misses": ..., "skipped": ..., "hit_rate": ...}}``.
    The hit rate is recomputed from the summed counters, so third-party
    substrates only need to expose the three raw counts.
    """
    subs = list(substrates) if substrates is not None else list(_POOL.values())
    agg: Dict[str, Dict[str, Any]] = {}
    for sub in subs:
        for key, value in sub.describe().parameters:
            if "_cache_" not in key:
                continue
            kind, _, stat = key.partition("_cache_")
            if stat not in ("hits", "misses", "skipped"):
                continue
            row = agg.setdefault(kind, {"hits": 0, "misses": 0, "skipped": 0})
            row[stat] += int(value)
    for row in agg.values():
        lookups = row["hits"] + row["misses"]
        row["hit_rate"] = row["hits"] / lookups if lookups else 0.0
    return agg


def clear_substrate_pool() -> None:
    """Drop every pooled instance (tests / memory pressure)."""
    _POOL.clear()


def set_pool_cache_store(store: None) -> None:
    """Accept ``None``: the pool has no cache store to attach or detach.

    Every substrate cache lives in process memory, so there is nothing
    to configure.  The function survives only because the benchmark
    harness (``perfbench/worker.py``) calls ``set_pool_cache_store(None)``
    before every repetition; that call is a no-op and leaves pooled
    instances in place.  Any other argument raises
    :class:`~repro.errors.ConfigurationError`.
    """
    if store is not None:
        raise ConfigurationError(
            "substrate caches are in-memory only; set_pool_cache_store "
            f"accepts only None, got {type(store).__name__}")
