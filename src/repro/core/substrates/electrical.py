"""The electrical substrate (SimGrid-style fluid model).

Each step of a schedule becomes a batch of fluid flows on the electrical
topology (switched star or point-to-point ring) with max-min fair
sharing; a per-step software latency is added (the alpha of SimGrid's
model).  The topology
and :class:`~repro.simulation.fluid.FluidNetworkSimulator` are built
once per system and reused across ``execute`` calls.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...collectives.schedule import Schedule
from ...config import ElectricalSystem, Workload, default_electrical
from ...errors import ConfigurationError
from ...simulation.fluid import FluidNetworkSimulator
from ...topology.ring import RingTopology
from ...topology.switched import SwitchedStar
from .base import (ExecutionReport, FluidCacheMixin, StepReport, Substrate,
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
        self._sims: Dict[ElectricalSystem, FluidNetworkSimulator] = {}

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
        if system is None:
            system = self._resolve_system(schedule)
        elif not isinstance(system, ElectricalSystem):
            raise ConfigurationError(
                f"electrical substrate needs an ElectricalSystem, "
                f"got {type(system).__name__}")
        sim = self._simulator(system)
        report = ExecutionReport(schedule_name=schedule.name,
                                 substrate=f"electrical-{system.topology}")
        # One fused call: the whole schedule is canonicalized and
        # deduped up front (a ring schedule has 2(N-1) identical
        # steps), and repeats hit the simulator's pattern cache.
        makespans = self._fluid_step_times(sim, schedule, workload)
        now = 0.0
        for idx, (step, makespan) in enumerate(zip(schedule.steps,
                                                   makespans)):
            duration = system.step_latency + makespan
            now += duration
            report.steps.append(StepReport(
                index=idx, duration=duration,
                serialization_time=makespan,
                propagation_time=0.0,
                tuning_time=0.0,
                overhead_time=system.step_latency,
                num_transfers=len(step)))
        report.total_time = now
        return report

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan, system: Optional[ElectricalSystem] = None,
                        ):
        """Degraded replay: clean steps reuse the healthy makespans,
        faulty steps re-solve on the fault-masked topology (link faults
        cut both directions of a pair; node faults take the node and
        its links), OCS stalls delay step starts."""
        if system is None:
            system = self._resolve_system(schedule)
        healthy = self.execute(schedule, workload, system=system)
        return self._fluid_faulty_run(system, schedule, workload, plan,
                                      healthy,
                                      overhead=system.step_latency)

    # -- internals ----------------------------------------------------------

    def _resolve_system(self, schedule: Schedule) -> ElectricalSystem:
        if self._system is not None:
            if schedule.num_nodes > self._system.num_nodes:
                raise ConfigurationError(
                    f"schedule spans {schedule.num_nodes} nodes; system "
                    f"has {self._system.num_nodes}")
            return self._system
        return default_electrical(schedule.num_nodes).with_(
            topology=self._topology)

    def _build_topology(self, system: ElectricalSystem):
        if system.topology == "switch":
            return SwitchedStar(system.num_nodes,
                                system.effective_port_rate)
        return RingTopology(system.num_nodes, system.link_rate,
                            bidirectional=True)

    def _simulator(self, system: ElectricalSystem) -> FluidNetworkSimulator:
        sim = self._sims.get(system)
        if sim is None:
            sim = FluidNetworkSimulator(self._build_topology(system))
            self._register_fluid_simulator(sim)
            self._sims[system] = sim
        return sim
