"""Core layer: cost models, planner, substrates, comparison suite.

* :mod:`~repro.core.cost_model` — closed-form α–β–WDM communication-time
  models for every algorithm (fast; used by the planner and the Fig. 2
  harness, cross-validated against full simulation in the tests);
* :mod:`~repro.core.substrates` — the pluggable execution engines: a
  string-keyed registry of :class:`~repro.core.substrates.Substrate`
  implementations (WDM ring with memoized RWA, electrical fluid models,
  2-D optical torus) that keep network state and their in-memory
  memoization caches (RWA, OCS decomposition, fluid patterns) warm
  across calls;
* :mod:`~repro.core.planner` — chooses Wrht's group size ``m`` and
  all-to-all variant for a given system + payload (analytically or by
  simulating candidates on a substrate);
* :mod:`~repro.core.comparison` — the "all four algorithms on one
  workload" driver behind every figure, plus the torus extension
  scenario;
* :mod:`~repro.core.allreduce_api` — a numerical all-reduce front end
  that really reduces user arrays while reporting modelled time.
"""

from .._lazy import lazy_exports

# Each name imports its module on first read: the planner, the cost
# models and the substrates load only for the callers that use them.
__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".comparison": ("ALGORITHMS", "EXTENDED_ALGORITHMS", "AlgorithmResult",
                    "ComparisonResult", "compare_algorithms"),
    ".cost_model": ("ering_time", "rd_time", "oring_time",
                    "ring_allreduce_time_optical", "wrht_time",
                    "wrht_time_from_schedule"),
    ".planner": ("WrhtPlan", "plan_wrht"),
    ".substrates": ("ExecutionReport", "StepReport", "Substrate",
                    "SubstrateInfo", "OpticalRingSubstrate",
                    "ElectricalSubstrate", "OpticalTorusSubstrate",
                    "get_substrate", "pooled_substrate",
                    "register_substrate", "available_substrates"),
})
