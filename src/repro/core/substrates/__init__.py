"""Pluggable interconnect substrates behind a string-keyed registry.

The substrate layer decouples "what schedule to run" from "what fabric
runs it".  Every substrate implements
:class:`~repro.core.substrates.base.Substrate` —
``execute(schedule, workload) -> ExecutionReport`` plus ``describe()``
metadata and the batch ``execute_many`` — and registers under a string
key, so drivers dispatch with ``get_substrate("optical-ring")`` instead
of hard-wiring executor functions.

Built-ins
---------
* ``"optical-ring"``      — conflict-exact WDM ring RWA with striping,
  MRR tuning, and an RWA memoization cache
  (:class:`OpticalRingSubstrate`);
* ``"electrical-switch"`` / ``"electrical-ring"`` — SimGrid-style fluid
  flows on a non-blocking star / point-to-point ring
  (:class:`ElectricalSubstrate`);
* ``"optical-torus"``     — 2-D WDM torus, dimension-ordered routing
  over aggregate-capacity links (:class:`OpticalTorusSubstrate`);
* ``"ocs-reconfig"``      — reconfigurable OCS fabric executing
  topology programs: per-step stay-vs-reconfigure choice with matched
  circuit rounds (:class:`OCSReconfigurableSubstrate`);
* ``"hier-rack"``         — multi-rack hierarchy: electrical rack
  stars (fluid model) on a WDM leader ring (conflict-exact RWA), with
  cross-rack transfers relayed through rack leaders
  (:class:`HierarchicalRackSubstrate`).

Third-party fabrics plug in with :func:`register_substrate`;
:func:`pooled_substrate` shares warm instances within a process.
"""

from __future__ import annotations

from .base import (CacheStats, ExecutionReport, FaultReplay,
                   FluidCacheMixin, LruCache, StepReport, Substrate,
                   SubstrateInfo)
from .electrical import ElectricalSubstrate
from .hier_rack import HierarchicalRackSubstrate
from .optical_ring import (OpticalRingSubstrate, OpticalStepOutcome,
                           RwaCacheStats)
from .optical_torus import OpticalTorusSubstrate
from .reconfigurable import OCSReconfigurableSubstrate
from .registry import (available_substrates, cache_stats,
                       clear_substrate_pool, get_substrate, pooled_substrate,
                       register_substrate, set_pool_cache_store)

register_substrate(
    "optical-ring",
    lambda system=None, **kw: OpticalRingSubstrate(system, **kw))
register_substrate(
    "electrical-switch",
    lambda system=None, **kw: ElectricalSubstrate(system, topology="switch",
                                                  **kw))
register_substrate(
    "electrical-ring",
    lambda system=None, **kw: ElectricalSubstrate(system, topology="ring",
                                                  **kw))
register_substrate(
    "optical-torus",
    lambda system=None, **kw: OpticalTorusSubstrate(system, **kw))
register_substrate(
    "ocs-reconfig",
    lambda system=None, **kw: OCSReconfigurableSubstrate(system, **kw))
register_substrate(
    "hier-rack",
    lambda system=None, **kw: HierarchicalRackSubstrate(system, **kw))

__all__ = [
    "Substrate",
    "SubstrateInfo",
    "ExecutionReport",
    "FaultReplay",
    "StepReport",
    "OpticalRingSubstrate",
    "OpticalStepOutcome",
    "ElectricalSubstrate",
    "OpticalTorusSubstrate",
    "OCSReconfigurableSubstrate",
    "HierarchicalRackSubstrate",
    "CacheStats",
    "FluidCacheMixin",
    "LruCache",
    "RwaCacheStats",
    "register_substrate",
    "get_substrate",
    "pooled_substrate",
    "available_substrates",
    "cache_stats",
    "clear_substrate_pool",
    "set_pool_cache_store",
]
