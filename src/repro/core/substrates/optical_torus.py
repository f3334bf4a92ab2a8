"""The 2-D optical torus substrate (extension scenario).

The substrate the registry refactor pays for: a genuinely new
interconnect built entirely from existing pieces —
:class:`~repro.topology.torus.Torus2D` (dimension-ordered X-then-Y
routing) plus the fluid max-min simulator.  Each torus link bundles the
system's WDM channels into one aggregate-capacity waveguide (fluid
sharing stands in for per-channel RWA; a conflict-exact torus RWA is an
open item in ROADMAP.md).  Per step the model charges MRR tuning + a
fixed synchronisation overhead + the fluid makespan of the step's
flows, mirroring the ring substrate's synchronous-step semantics.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ...collectives.schedule import Schedule
from ...config import OpticalTorusSystem, Workload, default_torus
from ...errors import ConfigurationError
from ...topology.torus import Torus2D
from .base import (ExecutionReport, FaultReplay, FluidCacheMixin, Substrate,
                   SubstrateInfo)


class OpticalTorusSubstrate(FluidCacheMixin, Substrate):
    """Fluid-model schedule execution on a WDM 2-D torus.

    Parameters
    ----------
    system:
        The :class:`~repro.config.OpticalTorusSystem`; ``None`` derives
        a most-square default torus per schedule (the node count must
        be composite with both factors >= 2).
    """

    name = "optical-torus"

    def __init__(self, system: Optional[OpticalTorusSystem] = None) -> None:
        if system is not None and not isinstance(system, OpticalTorusSystem):
            raise ConfigurationError(
                f"optical-torus substrate needs an OpticalTorusSystem, "
                f"got {type(system).__name__}")
        self._system = system

    def describe(self) -> SubstrateInfo:
        """Metadata: torus shape, aggregate WDM link model, and the
        aggregated fluid-pattern cache counters."""
        params = self._fluid_cache_params()
        params += self._fault_params()
        if self._system is not None:
            rows, cols = self._system.grid_shape
            params += [("rows", rows), ("cols", cols),
                       ("num_wavelengths", self._system.num_wavelengths),
                       ("link_rate", self._system.link_rate)]
        return SubstrateInfo(
            name=self.name, kind="optical",
            description="2-D WDM torus, dimension-ordered routing, "
                        "aggregate-capacity links under max-min fluid "
                        "sharing",
            parameters=tuple(params))

    def execute(self, schedule: Schedule, workload: Workload,
                ) -> ExecutionReport:
        """Execute ``schedule`` on the torus."""
        return self._fluid_run(self._resolve_system(schedule), schedule,
                               workload)

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan):
        """Degraded replay on the fault-masked torus, through the loop
        of :meth:`execute` (see ``FluidCacheMixin._fluid_run``)."""
        system = self._resolve_system(schedule)
        replay = FaultReplay(plan, system.num_nodes, system.num_wavelengths)
        return replay.result(self._fluid_run(system, schedule, workload,
                                             replay))

    # -- internals ----------------------------------------------------------

    def _default_system(self, num_nodes: int) -> OpticalTorusSystem:
        return default_torus(num_nodes)

    def _step_charges(self, system: OpticalTorusSystem,
                      ) -> Tuple[str, float, float]:
        """Report name, tuning and per-step overhead.  Hierarchical
        routes re-tune MRRs every step (no static neighbour circuit as
        on the ring), so tuning is charged per step alongside the
        synchronisation overhead."""
        return self.name, system.tuning_time, system.step_overhead

    def _build_topology(self, system: OpticalTorusSystem) -> Torus2D:
        rows, cols = system.grid_shape
        return Torus2D(rows, cols, capacity=system.link_rate,
                       latency=system.hop_propagation_delay)
