"""The electrical substrate (SimGrid-style fluid model).

Each step of a schedule becomes a batch of fluid flows on the electrical
topology (switched star or point-to-point ring) with max-min fair
sharing; a per-step software latency is added (the alpha of SimGrid's
model).  The topology
and :class:`~repro.simulation.fluid.FluidNetworkSimulator` are built
once per system and reused across ``execute`` calls.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...collectives.schedule import Schedule
from ...config import ElectricalSystem, Workload, default_electrical
from ...errors import ConfigurationError
from ...topology.ring import RingTopology
from ...topology.switched import SwitchedStar
from .base import (ExecutionReport, FaultReplay, FluidCacheMixin, Substrate,
                   SubstrateInfo)


class ElectricalSubstrate(FluidCacheMixin, Substrate):
    """Fluid-model schedule execution on an electrical network.

    Parameters
    ----------
    system:
        The :class:`~repro.config.ElectricalSystem`; ``None`` derives a
        default per schedule.  When ``topology`` is also given, the
        system is coerced onto that topology (mirrors how the
        comparison harness builds its E-Ring system from the switch
        default).
    topology:
        Force ``"switch"`` or ``"ring"``; ``None`` keeps the system's.
    """

    def __init__(self, system: Optional[ElectricalSystem] = None,
                 topology: Optional[str] = None) -> None:
        if system is not None and not isinstance(system, ElectricalSystem):
            raise ConfigurationError(
                f"electrical substrate needs an ElectricalSystem, "
                f"got {type(system).__name__}")
        if topology is not None and topology not in ("switch", "ring"):
            raise ConfigurationError(
                f"topology must be 'switch' or 'ring', got {topology!r}")
        if system is not None and topology is not None \
                and system.topology != topology:
            system = system.with_(topology=topology)
        self._system = system
        self._topology = topology if topology is not None else (
            system.topology if system is not None else "switch")

    @property
    def name(self) -> str:  # type: ignore[override]
        """Registry-facing name, e.g. ``"electrical-switch"``."""
        return f"electrical-{self._topology}"

    def describe(self) -> SubstrateInfo:
        """Metadata: fluid model, topology settings, and the aggregated
        fluid-pattern cache counters."""
        params = [("topology", self._topology)]
        params += self._fluid_cache_params()
        params += self._fault_params()
        if self._system is not None:
            params += [("num_nodes", self._system.num_nodes),
                       ("link_rate", self._system.link_rate)]
        return SubstrateInfo(
            name=self.name, kind="electrical",
            description="max-min fair fluid flows on a switched star or "
                        "point-to-point ring with per-step latency",
            parameters=tuple(params))

    def execute(self, schedule: Schedule, workload: Workload,
                system: Optional[ElectricalSystem] = None,
                ) -> ExecutionReport:
        """Execute ``schedule`` on the electrical substrate.

        ``system`` overrides the configured system for this call (the
        bandwidth sweep's knob): simulators are pooled per system, and
        systems whose topologies share a *shape* share one compiled
        structure cache, so re-executing a schedule across link-rate
        cells only rebinds capacities.
        """
        return self._fluid_run(self._call_system(schedule, system),
                               schedule, workload)

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan, system: Optional[ElectricalSystem] = None,
                        ):
        """Degraded replay through the loop of :meth:`execute`: clean
        steps keep the healthy makespans, faulty steps re-solve on the
        fault-masked topology (link faults cut both directions of a
        pair; node faults take the node and its links), OCS stalls
        delay step starts."""
        system = self._call_system(schedule, system)
        replay = FaultReplay(plan, system.num_nodes)
        return replay.result(self._fluid_run(system, schedule, workload,
                                             replay))

    # -- internals ----------------------------------------------------------

    def _call_system(self, schedule: Schedule,
                     system: Optional[ElectricalSystem]) -> ElectricalSystem:
        """The per-call ``system`` override, or the resolved system."""
        if system is None:
            return self._resolve_system(schedule)
        if not isinstance(system, ElectricalSystem):
            raise ConfigurationError(
                f"electrical substrate needs an ElectricalSystem, "
                f"got {type(system).__name__}")
        return system

    def _default_system(self, num_nodes: int) -> ElectricalSystem:
        return default_electrical(num_nodes).with_(topology=self._topology)

    def _step_charges(self, system: ElectricalSystem,
                      ) -> Tuple[str, float, float]:
        """Report name, tuning and per-step overhead: no tuning, the
        software latency per step."""
        return f"electrical-{system.topology}", 0.0, system.step_latency

    def _build_topology(self, system: ElectricalSystem):
        if system.topology == "switch":
            return SwitchedStar(system.num_nodes,
                                system.effective_port_rate)
        return RingTopology(system.num_nodes, system.link_rate,
                            bidirectional=True)
