"""Wrht: efficient all-reduce for optical interconnects (PPoPP'23 repro).

Architecture
------------
The library is layered so that "what to run", "where to run it" and
"how fast it was" stay independent:

* **Configs** (:mod:`repro.config`) — frozen, validated system and
  workload descriptions: :class:`~repro.config.OpticalRingSystem`,
  :class:`~repro.config.ElectricalSystem`,
  :class:`~repro.config.OpticalTorusSystem`,
  :class:`~repro.config.Workload`;
* **Schedules** (:mod:`repro.collectives`) — generators emitting the
  synchronous-step :class:`~repro.collectives.schedule.Schedule` IR
  (Wrht + every baseline), with semantic verification;
* **Substrates** (:mod:`repro.core.substrates`) — pluggable execution
  engines behind a string-keyed registry:
  ``get_substrate("optical-ring")`` resolves a
  :class:`~repro.core.substrates.Substrate` that executes any schedule
  and reports per-step timings.  Built-ins: the conflict-exact WDM ring
  (with an RWA memoization cache), two electrical fluid models, and a
  2-D optical torus; third-party fabrics plug in via
  :func:`~repro.core.substrates.register_substrate`.  Substrate
  classes can also be built directly, e.g.
  ``OpticalRingSubstrate(system).execute(schedule, workload)``;
* **Planning & analysis** (:mod:`repro.core`, :mod:`repro.analysis`) —
  :func:`~repro.core.planner.plan_wrht` picks the group size
  (analytically or by simulating candidates on a substrate),
  :func:`~repro.core.comparison.compare_algorithms` drives the figures,
  and the sweep module fans experiments over substrates;
* **Front ends** — :func:`~repro.core.allreduce_api.allreduce` and
  :class:`~repro.core.communicator.Communicator` reduce real numpy
  arrays while reporting modelled time; ``python -m repro`` exposes the
  figures, sweeps and planner on the command line.

See ``README.md`` for the CLI, the substrates and the performance
notes; ``python -m repro report`` regenerates the paper-vs-measured
record.
"""

from ._lazy import lazy_exports
from .config import (ElectricalSystem, HierarchicalSystem,
                     OpticalRingSystem, OpticalTorusSystem, Workload,
                     default_electrical, default_hierarchical,
                     default_optical, default_torus)
from .errors import (ConfigurationError, PlanningError, ReproError,
                     ScheduleError, SimulationError, TopologyError,
                     VerificationError, WavelengthAllocationError)

__version__ = "1.1.0"

__all__ = [
    "OpticalRingSystem",
    "ElectricalSystem",
    "OpticalTorusSystem",
    "HierarchicalSystem",
    "Workload",
    "default_optical",
    "default_electrical",
    "default_torus",
    "default_hierarchical",
    "ReproError",
    "ConfigurationError",
    "TopologyError",
    "WavelengthAllocationError",
    "ScheduleError",
    "VerificationError",
    "SimulationError",
    "PlanningError",
    "__version__",
]


# The front ends load on first use, so ``import repro`` stays light.
_front_ends, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".core.planner": ("plan_wrht", "WrhtPlan"),
    ".core.comparison": ("compare_algorithms", "ComparisonResult"),
    ".core.allreduce_api": ("allreduce",),
    ".core.substrates": ("Substrate", "get_substrate", "register_substrate",
                         "available_substrates"),
})
