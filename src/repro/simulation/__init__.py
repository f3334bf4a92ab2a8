"""Discrete-event / fluid network simulation (the SimGrid substitute).

The electrical baselines (E-Ring, RD) of the paper were evaluated with
SimGrid.  At the granularity the paper needs, SimGrid's TCP model is a
*fluid* model: active flows share link capacity max-min fairly and a flow
of S bytes over an uncongested path of rate B and latency L completes in
``L + S/B``.  This package implements exactly that:

* :mod:`~repro.simulation.engine` — a classic event-calendar simulator;
* :mod:`~repro.simulation.flows` — the max-min fair-share solver
  (progressive filling);
* :mod:`~repro.simulation.fluid` — the flow-level network simulator that
  advances flows between rate recomputations;
* :mod:`~repro.simulation.trace` — per-link utilization accounting.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".engine": ("Event", "EventQueue", "Simulator"),
    ".flows": ("Flow", "CompiledFlowBatch", "SPARSE_FLOW_THRESHOLD",
               "compile_flows", "compile_paths", "have_sparse",
               "progressive_fill", "max_min_fair_rates", "resolve_backend",
               "validate_allocation"),
    ".fluid": ("FluidNetworkSimulator", "FlowResult", "StepProfile"),
    ".trace": ("LinkTrace", "TraceRecorder"),
})
