"""The layer table: which public functions each span wraps, where each
layer is expected to work, and what each per-layer metric should move.

``BENCHMARK.json`` holds every metric's name, unit and direction; this
module adds what that file has no field for — for each per-layer
metric, its layer, the end-to-end metric it should move, and the
workloads where it works and where it should stay flat (the columns
``run.py --list`` prints).

Span expectations, checked by the self-tests on tiny inputs:

* ``works`` — workloads on which the span must fire (calls > 0);
* ``zero`` — workloads on which the layer is bypassed (calls == 0);
* ``flat`` — workloads on which it runs but should not grow with the
  workload (memoized, or a handful of calls); not asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

FIG2 = "paper_fig2"
BACKLOG = "serve_backlog"
OPTICAL = "serve_optical_faults"
COPLAN = "coplan_strategies"
WORKLOADS = (FIG2, BACKLOG, OPTICAL, COPLAN)
SERVE = (BACKLOG, OPTICAL)


def _others(*names: str) -> Tuple[str, ...]:
    return tuple(w for w in WORKLOADS if w not in names)


@dataclass(frozen=True)
class Span:
    """One traced layer boundary."""

    name: str
    layer: str
    targets: Tuple[str, ...]
    moves: Tuple[str, ...]
    works: Tuple[str, ...]
    zero: Tuple[str, ...] = ()
    flat: Tuple[str, ...] = ()
    #: Collect ``self`` of each call under this role (counter sources).
    role: Optional[str] = None
    #: Record the scheduler's queue depth at each call.
    queue_depth: bool = False
    #: Add the returned schedule's transfer count to
    #: ``collectives.transfers``.
    counts_transfers: bool = False
    #: Add the returned execution report's step count to
    #: ``substrate.steps`` (batch results are counted per inner call).
    counts_steps: bool = False


_C = "repro.collectives."
_SUB = "repro.core.substrates."

SPANS: Tuple[Span, ...] = (
    Span("collectives.generate", "collectives",
         (_C + "wrht:generate_wrht",
          _C + "ring_allreduce:generate_ring_allreduce",
          _C + "recursive_doubling:generate_recursive_doubling",
          _C + "halving_doubling:generate_halving_doubling",
          _C + "hierarchical_ring:generate_hierarchical_ring"),
         moves=("wall_s", "peak_rss_mb"), works=(FIG2,), flat=SERVE,
         counts_transfers=True),
    Span("collectives.place", "collectives",
         (_C + "placement:place_schedule", _C + "placement:phase_schedule"),
         moves=("wall_s",), works=SERVE + (COPLAN,), zero=(FIG2,),
         flat=SERVE),
    Span("collectives.demand", "collectives",
         (_C + "analysis:step_wavelength_demand",),
         moves=("wall_s",), works=(FIG2,), zero=_others(FIG2)),
    Span("topology.ring_build", "topology",
         ("repro.topology.ring:RingTopology.__init__",),
         moves=("wall_s",), works=(FIG2,), flat=SERVE + (COPLAN,)),
    Span("cost_model.wrht", "core.cost_model",
         ("repro.core.cost_model:wrht_time_from_schedule",),
         moves=("wall_s",), works=(FIG2,), zero=_others(FIG2)),
    Span("planner.plan_wrht", "core.planner",
         ("repro.core.planner:plan_wrht",),
         moves=("wall_s",), works=(FIG2,), zero=_others(FIG2)),
    Span("optical.rwa", "optical",
         ("repro.optical.rwa:assign_wavelengths",
          "repro.optical.rwa:assign_wavelengths_delta",
          "repro.optical.rwa:compute_striping_factor"),
         moves=("wall_s",), works=(OPTICAL,), zero=_others(OPTICAL)),
    Span("substrate.run_step", "core.substrates.optical_ring",
         (_SUB + "optical_ring:OpticalRingSubstrate.run_step",),
         moves=("wall_s",), works=(OPTICAL,), zero=_others(OPTICAL),
         role="substrate"),
    Span("substrate.execute", "core.substrates",
         (_SUB + "base:Substrate.execute", _SUB + "base:Substrate.execute_many"),
         moves=("wall_s",), works=SERVE, zero=(FIG2,),
         role="substrate", counts_steps=True),
    Span("substrate.execute_demands", "core.substrates",
         (_SUB + "reconfigurable:OCSReconfigurableSubstrate.execute_demands",),
         moves=("wall_s",), works=(COPLAN,), zero=_others(COPLAN),
         role="substrate", counts_steps=True),
    Span("fluid.step_profile", "simulation",
         ("repro.simulation.fluid:FluidNetworkSimulator.step_profile",),
         moves=("wall_s",), works=(BACKLOG, COPLAN), zero=(FIG2,)),
    Span("fluid.run", "simulation",
         ("repro.simulation.fluid:FluidNetworkSimulator.run",
          "repro.simulation.fluid:FluidNetworkSimulator.run_schedule"),
         moves=("wall_s",), works=(BACKLOG,), zero=(FIG2,)),
    Span("program.decompose", "topology.program",
         ("repro.topology.program:DecompositionDelta.solve",
          "repro.topology.program:decompose_demand"),
         moves=("wall_s",), works=(COPLAN,), zero=_others(COPLAN)),
    Span("program.synthesize", "topology.program",
         ("repro.topology.program:synthesize_program",),
         moves=("wall_s",), works=(COPLAN,), zero=_others(COPLAN)),
    Span("topoplan.table", "core.topoplan",
         ("repro.core.topoplan:strategy_plan_table",),
         moves=("wall_s", "sim_plan_s"), works=(COPLAN,),
         zero=_others(COPLAN)),
    Span("strategies.lower", "models.strategies",
         ("repro.models.strategies:ParallelStrategy.lower",),
         moves=("wall_s", "sim_plan_s"), works=(COPLAN,),
         zero=_others(COPLAN)),
    Span("gradients.bucketize", "models.gradients",
         ("repro.models.gradients:bucketize_gradients",),
         moves=("wall_s",), works=SERVE, zero=(FIG2,)),
    Span("scheduler.submit", "serving.scheduler",
         ("repro.serving.scheduler:OnlineScheduler.submit",),
         moves=("wall_s", "sim_jct_p50_s"), works=SERVE,
         zero=(FIG2, COPLAN), queue_depth=True),
    Span("scheduler.admit", "serving.scheduler",
         ("repro.serving.scheduler:OnlineScheduler.admit_from_queue",),
         moves=("wall_s", "sim_jct_p50_s"), works=SERVE,
         zero=(FIG2, COPLAN), flat=(OPTICAL,), queue_depth=True),
    Span("scheduler.faults", "serving.scheduler",
         ("repro.serving.scheduler:OnlineScheduler.fail_nodes",
          "repro.serving.scheduler:OnlineScheduler.restore_nodes",
          "repro.serving.scheduler:OnlineScheduler.check_conservation"),
         moves=("wall_s", "sim_jct_p99_s"), works=(OPTICAL,),
         zero=_others(OPTICAL), queue_depth=True),
    Span("contention.slowdowns", "serving.contention",
         ("repro.serving.contention:ContentionModel.slowdowns",),
         moves=("wall_s",), works=SERVE, zero=(FIG2, COPLAN),
         flat=(OPTICAL,), role="contention"),
    Span("engine.run", "serving.engine",
         ("repro.serving.engine:ServingEngine.run",),
         moves=("wall_s",), works=SERVE, zero=(FIG2, COPLAN)),
    Span("faults.advance", "faults",
         ("repro.faults.plan:FaultTimeline.advance",),
         moves=("wall_s", "sim_failed_frac"), works=(OPTICAL,),
         zero=_others(OPTICAL)),
)

#: Per-layer metrics that are not span totals: (layer, moves, where).
EXTRA_METRICS: Dict[str, Tuple[str, str, str]] = {
    "collectives.transfers": ("collectives", "wall_s, peak_rss_mb", FIG2),
    "substrate.steps": ("core.substrates", "wall_s", f"{OPTICAL}, {COPLAN}"),
    "optical.rwa.hit_rate": ("optical", "wall_s", OPTICAL),
    "optical.rwa.delta_patch_ratio": ("optical", "wall_s", OPTICAL),
    "fluid.hit_rate": ("simulation", "wall_s", f"{BACKLOG}, {COPLAN}"),
    "fluid.compile_hit_rate": ("simulation", "wall_s",
                               f"{BACKLOG}, {COPLAN}"),
    "program.step_hit_rate": ("topology.program", "wall_s", COPLAN),
    "topoplan.simulated_frac": ("core.topoplan", "wall_s, sim_plan_s",
                                COPLAN),
    "sim.ocs_reconfigs": ("core.topoplan", "sim_plan_s", COPLAN),
    "sim.queue_wait_mean_s": ("serving.scheduler",
                              "sim_jct_p50_s, sim_jct_p99_s", ", ".join(SERVE)),
    "sim.slowdown_mean": ("serving.contention", "sim_jct_p50_s", BACKLOG),
    "sim.preemptions": ("faults", "sim_failed_frac, sim_jct_p99_s", OPTICAL),
    "paper_gap_pp": ("simulated result", "-", FIG2),
    "sim_jct_p50_s": ("simulated result", "-", ", ".join(SERVE)),
    "sim_jct_p99_s": ("simulated result", "-", ", ".join(SERVE)),
    "sim_jobs_per_s": ("simulated result", "-", ", ".join(SERVE)),
    "sim_failed_frac": ("simulated result", "-", ", ".join(SERVE)),
    "sim_plan_s": ("simulated result", "-", COPLAN),
    "host.probe_s": ("host", "-", "all"),
    "trace.overhead_ratio": ("host", "-", "all"),
}


def per_layer_info() -> Dict[str, Tuple[str, str, str, str]]:
    """``{metric: (layer, moves, where it works, where it stays flat)}``
    for every per-layer metric."""
    out: Dict[str, Tuple[str, str, str, str]] = {}
    for s in SPANS:
        row = (s.layer, ", ".join(s.moves), ", ".join(s.works),
               ", ".join(s.flat) or "-")
        out[f"{s.name}.calls"] = out[f"{s.name}.self_s"] = row
    for name, (layer, moves, where) in EXTRA_METRICS.items():
        out[name] = (layer, moves, where, "-")
    return out
