"""The "four algorithms, one workload" driver behind every figure.

:func:`compare_algorithms` evaluates the paper's four contenders on one
(node count, payload) point:

* ``"e-ring"`` — ring all-reduce on the electrical network (SimGrid
  substitute);
* ``"rd"``     — recursive doubling on the electrical network;
* ``"o-ring"`` — ring all-reduce on the optical ring, one wavelength per
  transfer;
* ``"wrht"``   — the planned Wrht schedule on the optical ring;

plus two extension scenarios enabled by the substrate registry:

* ``"o-torus"`` — ring all-reduce on a 2-D WDM torus (analytic
  fidelity uses the closed-form :func:`repro.core.cost_model.
  otorus_ring_time`, pinned to the substrate simulation);
* ``"ocs"``     — the topology/schedule co-planner's best
  (algorithm, reconfiguration policy) pair on a reconfigurable OCS
  fabric (simulation-only: the per-step stay-vs-switch choices have no
  closed form, so both fidelities execute on the substrate);
* ``"hier"``    — the best rack size for a hierarchical ring
  all-reduce on the multi-rack fabric (electrical racks on a WDM
  leader ring): every divisor of ``N`` is swept with the closed-form
  :func:`repro.core.cost_model.hier_rack_time` (pinned to the
  ``"hier-rack"`` substrate) and the winner reported — the TopoOpt-ish
  foil to the flat O-Ring/Wrht contenders.

None of these is in the default ``ALGORITHMS`` (the figures stay the
paper's four); request them via ``algorithms=EXTENDED_ALGORITHMS``.

``fidelity="analytic"`` uses the closed-form cost models (default — the
tests pin them to simulation); ``fidelity="simulate"`` generates and
executes every schedule on the full substrates (slow at large N: a ring
schedule has 2(N−1) steps).  Simulation dispatches through
:func:`repro.core.substrates.pooled_substrate`, so repeated comparisons
on one system share a warm network and RWA cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Tuple

from ..collectives.recursive_doubling import (
    generate_recursive_doubling, recursive_doubling_step_count)
from ..collectives.ring_allreduce import (generate_ring_allreduce,
                                          ring_step_count)
from ..config import (ElectricalSystem, OpticalRingSystem, Workload,
                      default_electrical, default_hierarchical,
                      default_ocs, default_optical, default_torus,
                      hier_group_candidates)
from ..errors import ConfigurationError
from . import cost_model
from .planner import plan_wrht

ALGORITHMS: Tuple[str, ...] = ("e-ring", "rd", "o-ring", "wrht")
#: The paper's four plus the torus, reconfigurable-OCS, and multi-rack
#: hierarchy scenarios.
EXTENDED_ALGORITHMS: Tuple[str, ...] = ALGORITHMS + ("o-torus", "ocs",
                                                     "hier")


@dataclass(frozen=True)
class AlgorithmResult:
    """One algorithm's outcome on one workload point."""

    algorithm: str
    time_seconds: float
    num_steps: int
    substrate: str
    detail: dict = field(default_factory=dict)


@dataclass
class ComparisonResult:
    """All algorithms' outcomes on one (N, payload) point."""

    num_nodes: int
    workload: Workload
    results: Dict[str, AlgorithmResult] = field(default_factory=dict)

    def time(self, algorithm: str) -> float:
        """Seconds for ``algorithm`` (KeyError if not evaluated)."""
        return self.results[algorithm].time_seconds

    def reduction_vs(self, baseline: str, target: str = "wrht") -> float:
        """Fractional time reduction of ``target`` vs ``baseline``.

        The paper's headline metric: ``1 − T_target / T_baseline``.
        """
        return 1.0 - self.time(target) / self.time(baseline)

    def speedup_vs(self, baseline: str, target: str = "wrht") -> float:
        """``T_baseline / T_target``."""
        return self.time(baseline) / self.time(target)

    def normalized_times(self, unit: float = 1e-3) -> Dict[str, float]:
        """Times divided by ``unit`` (default ms) — Fig. 2's y-axis."""
        return {a: r.time_seconds / unit for a, r in self.results.items()}


def compare_algorithms(
    num_nodes: int,
    workload: Workload,
    optical: Optional[OpticalRingSystem] = None,
    electrical: Optional[ElectricalSystem] = None,
    algorithms: Iterable[str] = ALGORITHMS,
    fidelity: str = "analytic",
) -> ComparisonResult:
    """Evaluate ``algorithms`` at ``num_nodes`` on ``workload``."""
    if fidelity not in ("analytic", "simulate"):
        raise ConfigurationError(
            f"fidelity must be 'analytic' or 'simulate', got {fidelity!r}")
    opt = optical if optical is not None else default_optical(num_nodes)
    ele = (electrical if electrical is not None
           else default_electrical(num_nodes))
    if opt.num_nodes != num_nodes or ele.num_nodes != num_nodes:
        raise ConfigurationError(
            "system num_nodes must match the requested scale")

    out = ComparisonResult(num_nodes=num_nodes, workload=workload)
    for algo in algorithms:
        out.results[algo] = _evaluate(algo, num_nodes, workload, opt, ele,
                                      fidelity)
    return out


def _simulated(algo: str, substrate: str, system, schedule,
               workload: Workload, detail: Optional[dict] = None,
               **options) -> AlgorithmResult:
    """``schedule`` executed on the pooled ``substrate`` for ``system``.

    Only simulation loads the substrates; the analytic fidelity never
    imports them."""
    from .substrates import pooled_substrate
    rep = pooled_substrate(substrate, system).execute(schedule, workload,
                                                      **options)
    return AlgorithmResult(algo, rep.total_time, rep.num_steps,
                           rep.substrate, detail or {})


def _evaluate(algo: str, n: int, workload: Workload,
              opt: OpticalRingSystem, ele: ElectricalSystem,
              fidelity: str) -> AlgorithmResult:
    simulate = fidelity == "simulate"
    if algo == "e-ring":
        ering = ele.with_(topology="ring")
        if simulate:
            return _simulated(algo, "electrical-ring", ering,
                              generate_ring_allreduce(n), workload)
        return AlgorithmResult(algo, cost_model.ering_time(ering, workload),
                               ring_step_count(n), "electrical-ring")
    if algo == "rd":
        if simulate:
            # Dispatch on the system's own topology (a caller may study
            # RD on a ring fabric) — matches the pre-registry executor.
            return _simulated(algo, f"electrical-{ele.topology}", ele,
                              generate_recursive_doubling(n), workload)
        return AlgorithmResult(algo, cost_model.rd_time(ele, workload),
                               recursive_doubling_step_count(n),
                               "electrical-switch")
    if algo == "o-ring":
        if simulate:
            return _simulated(algo, "optical-ring", opt,
                              generate_ring_allreduce(n), workload,
                              striping="off")
        return AlgorithmResult(algo, cost_model.oring_time(opt, workload),
                               ring_step_count(n), "optical-ring")
    if algo == "wrht":
        plan = plan_wrht(opt, workload)
        detail = {"group_size": plan.group_size, "variant": plan.variant,
                  "used_alltoall": plan.info.used_alltoall}
        if simulate:
            return _simulated(algo, "optical-ring", opt, plan.schedule,
                              workload, detail)
        return AlgorithmResult(algo, plan.predicted_time, plan.num_steps,
                               "optical-ring", detail)
    if algo == "o-torus":
        if simulate:
            return _simulated(algo, "optical-torus", None,
                              generate_ring_allreduce(n), workload)
        return AlgorithmResult(
            algo, cost_model.otorus_ring_time(default_torus(n), workload),
            ring_step_count(n), "optical-torus")
    if algo == "hier":
        # Sweep the rack size (every divisor of N) with the closed form
        # and report the winner; mirrors the Wrht pattern of planning
        # analytically, then (under fidelity="simulate") executing the
        # planned schedule on the real substrate.
        from ..collectives.hierarchical_ring import (
            generate_hierarchical_ring, hierarchical_ring_step_count)
        best_system = min(
            (default_hierarchical(n, group_size=g)
             for g in hier_group_candidates(n)),
            key=lambda hs: cost_model.hier_rack_time(hs, workload))
        detail = {"group_size": best_system.group_size,
                  "num_groups": best_system.num_groups}
        if simulate:
            return _simulated(
                algo, "hier-rack", best_system,
                generate_hierarchical_ring(n, best_system.group_size),
                workload, detail)
        return AlgorithmResult(
            algo, cost_model.hier_rack_time(best_system, workload),
            hierarchical_ring_step_count(n, best_system.group_size),
            "hier-rack", detail)
    if algo == "ocs":
        # Simulation-only scenario: the co-planner's per-step
        # stay-vs-reconfigure choices have no closed form, so the
        # analytic fidelity also executes on the substrate.
        from .topoplan import plan_topology
        plan = plan_topology(default_ocs(n), workload)
        detail = {"algorithm": plan.algorithm, "policy": plan.policy,
                  "reconfigurations": plan.num_reconfigurations}
        return AlgorithmResult(algo, plan.predicted_time, plan.num_steps,
                               "ocs-reconfig", detail)
    raise ConfigurationError(f"unknown algorithm {algo!r}")
