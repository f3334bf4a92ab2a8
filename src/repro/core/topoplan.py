"""The topology/schedule co-planner for reconfigurable OCS fabrics.

On a fixed fabric the planner only chooses the collective algorithm; on
a reconfigurable OCS the *physical topology is a decision variable too*
(TopoOpt's observation).  :func:`plan_topology` searches the joint space

    (collective algorithm) x (reconfiguration policy)

by executing every candidate schedule on an
:class:`~repro.core.substrates.reconfigurable.OCSReconfigurableSubstrate`
— ``"static"`` pins the fabric to its boot topology
(``reconfiguration_delay = inf``), ``"reconfigure"`` lets the substrate
make its per-step stay-vs-switch choice under the system's real delay,
``"lookahead"`` plans the whole schedule's circuit program by DP
(:func:`~repro.topology.program.synthesize_program`, never worse than
``"reconfigure"``) — and returns the fastest end-to-end plan together
with the
:class:`~repro.topology.program.TopologyProgram` it realised.

The candidate pool holds the schedule shapes with meaningfully different
demand structure on a circuit fabric: ring all-reduce (neighbour-only —
lives happily on a static ring), recursive doubling (log-distance
matchings — the schedule reconfiguration pays off for), and
halving-doubling (matchings with shrinking payloads).  Candidates that
cannot be generated for a node count are skipped, not fatal.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..collectives.hierarchical_ring import hierarchical_ring_step_count
from ..collectives.placement import phase_schedule
from ..collectives.primitives import transfer_bytes
from ..collectives.registry import COLLECTIVES, STEP_COUNTS
from ..collectives.schedule import Schedule
from ..config import (HierarchicalSystem, ReconfigurableOCSSystem, Workload,
                      default_hierarchical, default_ocs,
                      hier_group_candidates)
from ..errors import ConfigurationError, PlanningError, ScheduleError
from ..models.catalog import get_model
from ..models.strategies import (DemandProfile, ParallelStrategy,
                                 enumerate_strategies)
from ..topology.program import CircuitPair, TopologyProgram
from .cost_model import (CANDIDATE_ALGORITHMS, profile_hier_time,
                         profile_ocs_bound)
from .substrates.base import ExecutionReport
from .substrates.reconfigurable import OCSReconfigurableSubstrate
from .substrates.registry import pooled_substrate

#: ``"static"`` — never reconfigure (boot topology only);
#: ``"reconfigure"`` — per-step stay-vs-switch under the real delay;
#: ``"lookahead"`` — whole-schedule DP program synthesis (never worse
#: than ``"reconfigure"``; last so ties keep the simpler policy).
POLICIES: Tuple[str, ...] = ("static", "reconfigure", "lookahead")


@dataclass(frozen=True)
class TopologyPlan:
    """One co-planned (algorithm, policy) outcome on an OCS fabric."""

    algorithm: str
    policy: str
    schedule: Schedule
    program: TopologyProgram
    predicted_time: float
    report: ExecutionReport

    @property
    def num_steps(self) -> int:
        """Steps of the planned schedule."""
        return self.schedule.num_steps

    @property
    def num_reconfigurations(self) -> int:
        """Circuit switches the realised program performs."""
        return self.program.num_reconfigurations


def candidate_schedule(algorithm: str, num_nodes: int) -> Schedule:
    """The candidate schedule for ``algorithm`` at ``num_nodes``."""
    _check_candidate(algorithm)
    return COLLECTIVES[algorithm](num_nodes)


def _check_candidate(algorithm: str) -> None:
    if algorithm not in CANDIDATE_ALGORITHMS:
        known = ", ".join(CANDIDATE_ALGORITHMS)
        raise PlanningError(
            f"unknown co-planner algorithm {algorithm!r}; "
            f"candidates: {known}")


def plan_topology(system: ReconfigurableOCSSystem, workload: Workload,
                  algorithms: Iterable[str] = CANDIDATE_ALGORITHMS,
                  policies: Iterable[str] = POLICIES,
                  ) -> TopologyPlan:
    """Pick the fastest (algorithm, policy) pair for ``system``.

    Every candidate is *executed* (the OCS has no closed form — its
    cost depends on the per-step routing/switching choices), one warm
    substrate per policy so decomposition caches are shared across the
    algorithm sweep.  Ties break toward fewer steps, then ``static``
    (no pointless switching), then algorithm name — deterministic.

    Raises :class:`~repro.errors.PlanningError` when no candidate can
    be generated or executed.
    """
    plans = topology_plan_table(system, workload, algorithms=algorithms,
                                policies=policies)
    if not plans:
        raise PlanningError(
            f"no feasible (algorithm, policy) candidate for "
            f"N={system.num_nodes} on the OCS fabric")
    return min(plans, key=_plan_key)


def topology_plan_table(system: ReconfigurableOCSSystem,
                        workload: Workload,
                        algorithms: Iterable[str] = CANDIDATE_ALGORITHMS,
                        policies: Iterable[str] = POLICIES,
                        ) -> List[TopologyPlan]:
    """Every candidate's outcome (the co-planner's full search grid).

    The grid behind :func:`plan_topology`, exposed for the ablation
    benchmark and the example — e.g. comparing the best reconfiguring
    plan against the best static plan at each reconfiguration delay.
    """
    policies = tuple(policies)
    substrates = _policy_substrates(system, policies)
    plans: List[TopologyPlan] = []
    for algorithm in algorithms:
        try:
            schedule = candidate_schedule(algorithm, system.num_nodes)
        except ScheduleError:
            continue
        if not schedule.steps:
            continue
        for policy in policies:
            sub = substrates[policy]
            report = sub.execute(schedule, workload)
            program = sub.last_program
            if program is None:
                raise PlanningError(
                    f"{algorithm}/{policy} recorded no circuit program")
            plans.append(TopologyPlan(
                algorithm=algorithm, policy=policy, schedule=schedule,
                program=program, predicted_time=report.total_time,
                report=report))
    return plans


def _plan_key(plan: TopologyPlan) -> Tuple[float, int, int, str]:
    return (plan.predicted_time, plan.num_steps,
            POLICIES.index(plan.policy), plan.algorithm)


# ---------------------------------------------------------------------------
# demand-profile planning (the strategy IR lifted onto the OCS planner)
# ---------------------------------------------------------------------------


def profile_demands(profile: DemandProfile, algorithm: str,
                    num_nodes: int,
                    ) -> Tuple[List[Dict[CircuitPair, float]], List[int],
                               str, Tuple[Schedule, ...]]:
    """Lower a demand profile to the OCS planner's currency.

    Generates ``algorithm`` at each phase's group width, places one copy
    per group (:func:`~repro.collectives.placement.phase_schedule`), and
    concatenates every phase's per-step ``{(src, dst): bytes}`` matrices
    in profile order, repeating each phase ``count`` times — the whole
    training step as one demand program, so the lookahead DP amortises
    reconfigurations *across* phase boundaries.  Returns
    ``(demands, transfer_counts, name, phase_schedules)``.

    A single-phase, single-occurrence profile keeps its schedule's own
    name, so the synthesized program is named exactly as the legacy
    schedule path names it — part of the bit-for-bit parity story.
    """
    return _profile_demands(profile, algorithm, num_nodes, _PhaseMemo())


@dataclass
class _PhaseMemo:
    """What one planning call has built per phase, on ``num_nodes``.

    ``schedules`` maps ``(algorithm, groups)`` to the phase schedule
    and the name of the phase it was built for; ``steps`` maps
    ``(algorithm, groups, message bytes)`` to that schedule's per-step
    demand matrices and transfer counts.  Phases of different
    strategies often share their groups, and many share a message
    size.
    """

    schedules: Dict[tuple, Tuple[Schedule, str]] = field(
        default_factory=dict)
    steps: Dict[tuple, Tuple[List[Dict[CircuitPair, float]], List[int]]] \
        = field(default_factory=dict)


def _profile_demands(profile: DemandProfile, algorithm: str,
                     num_nodes: int, memo: _PhaseMemo,
                     ) -> Tuple[List[Dict[CircuitPair, float]], List[int],
                                str, Tuple[Schedule, ...]]:
    """:func:`profile_demands`, reusing what ``memo`` holds."""
    _check_candidate(algorithm)
    if profile.world > num_nodes:
        raise PlanningError(
            f"profile spans {profile.world} ranks; fabric has {num_nodes}")
    schedules: List[Schedule] = []
    demands: List[Dict[CircuitPair, float]] = []
    counts: List[int] = []
    for phase in profile.phases:
        sched = _phase_schedule(phase, algorithm, num_nodes, memo)
        schedules.append(sched)
        key = (algorithm, phase.groups, phase.message_bytes)
        steps = memo.steps.get(key)
        if steps is None:
            steps = memo.steps[key] = _step_demands(sched,
                                                    phase.message_bytes)
        step_sizes, step_counts = steps
        for _ in range(phase.count):
            demands.extend(step_sizes)
            counts.extend(step_counts)
    if profile.num_phases == 1 and profile.phases[0].count == 1:
        name = schedules[0].name
    else:
        name = f"{profile.name}:{algorithm}"
    return demands, counts, name, tuple(schedules)


def _phase_schedule(phase, algorithm: str, num_nodes: int,
                    memo: _PhaseMemo) -> Schedule:
    """:func:`~repro.collectives.placement.phase_schedule` of ``phase``,
    built once per (algorithm, groups) in ``memo``."""
    key = (algorithm, phase.groups)
    hit = memo.schedules.get(key)
    if hit is None:
        sched = phase_schedule(phase, COLLECTIVES[algorithm], num_nodes)
        memo.schedules[key] = (sched, phase.name)
        return sched
    sched, built_for = hit
    if phase.num_groups == 1 or built_for == phase.name:
        return sched
    # An overlay of several groups is named "...@<phase name>"; the
    # same steps serve this phase under its own name.
    return replace(sched, steps=list(sched.steps),
                   name=sched.name.removesuffix(built_for) + phase.name)


def _step_demands(sched: Schedule, message_bytes: float,
                  ) -> Tuple[List[Dict[CircuitPair, float]], List[int]]:
    """Per-step ``{(src, dst): bytes}`` matrices and transfer counts of
    ``sched`` carrying ``message_bytes``."""
    step_sizes: List[Dict[CircuitPair, float]] = []
    step_counts: List[int] = []
    for step in sched.steps:
        sizes: Dict[CircuitPair, float] = {}
        for t in step:
            b = transfer_bytes(t, message_bytes, sched.num_chunks)
            sizes[(t.src, t.dst)] = sizes.get((t.src, t.dst), 0.0) + b
        step_sizes.append(sizes)
        step_counts.append(len(step))
    return step_sizes, step_counts


def _policy_substrates(system: ReconfigurableOCSSystem,
                       policies: Tuple[str, ...],
                       ) -> Dict[str, OCSReconfigurableSubstrate]:
    for policy in policies:
        if policy not in POLICIES:
            raise PlanningError(
                f"unknown policy {policy!r}; policies: "
                f"{', '.join(POLICIES)}")
    substrates: Dict[str, OCSReconfigurableSubstrate] = {}
    for policy in policies:
        sys_p = (system.with_(reconfiguration_delay=float("inf"))
                 if policy == "static" else system)
        # Pooled per (system[, lookahead]): repeated co-planning on one
        # fabric — the comparison harness, the delay ablation — reuses
        # warm instances and their decomposition step caches.
        extra = {"lookahead": True} if policy == "lookahead" else {}
        sub = pooled_substrate("ocs-reconfig", sys_p, **extra)
        if not isinstance(sub, OCSReconfigurableSubstrate):
            raise PlanningError(
                f"policy {policy!r} pooled a {type(sub).__name__}, not an "
                f"OCS substrate")
        substrates[policy] = sub
    return substrates


# ---------------------------------------------------------------------------
# strategy co-planning: (parallelization x rack size x leader x collective
# x topology program)
# ---------------------------------------------------------------------------

#: Fidelities of the strategy search — mirroring ``plan_wrht``:
#: ``"analytic"`` ranks every candidate by closed form only,
#: ``"simulate"`` executes everything, ``"hybrid"`` (default) prunes
#: with the closed forms and simulates the ``top_k`` OCS survivors.
STRATEGY_FIDELITIES: Tuple[str, ...] = ("analytic", "simulate", "hybrid")


@dataclass(frozen=True)
class StrategyPlan:
    """One co-planned outcome across fabric, shape, and program.

    ``fabric`` is ``"hier-rack"`` (two-level rack fabric; ``group_size``
    and ``leader_index`` carry the searched knobs, ``policy`` is
    ``"closed-form"``) or ``"ocs-reconfig"`` (``policy`` is one of
    :data:`POLICIES`, or ``"analytic"`` for unsimulated bound-only
    rankings, and ``program`` carries the synthesized circuit program).
    """

    strategy: ParallelStrategy
    profile: DemandProfile
    fabric: str
    algorithm: str
    policy: str
    predicted_time: float
    num_steps: int
    group_size: Optional[int] = None
    leader_index: Optional[int] = None
    program: Optional[TopologyProgram] = None
    report: Optional[ExecutionReport] = None

    @property
    def label(self) -> str:
        """Compact human-readable identity for tables and logs."""
        if self.fabric == "hier-rack":
            return (f"{self.strategy.name} hier g{self.group_size}"
                    f"/l{self.leader_index}")
        return f"{self.strategy.name} ocs {self.algorithm}/{self.policy}"


def default_leader_indices(group_size: int) -> Tuple[int, ...]:
    """Leader placements worth searching for one rack size.

    The local-phase depth is ``max(ℓ, g−1−ℓ)``, monotone in the
    distance from the middle, so three candidates cover every optimum:
    the historical last node (``g−1``), the depth-minimal middle
    (``(g−1)//2`` — ties pay the shared-leg contention when ``g`` is
    odd), and the contention-free near-middle (``g//2``).
    """
    if group_size <= 1:
        return (0,)
    g = group_size
    return tuple(sorted({(g - 1) // 2, g // 2, g - 1}))


def _profile_hier_steps(profile: DemandProfile, num_nodes: int,
                        group_size: int, leader_index: int) -> int:
    total = 0
    for phase in profile.phases:
        if phase.is_full_width(profile.world):
            steps = hierarchical_ring_step_count(num_nodes, group_size,
                                                 leader_index)
        else:
            steps = 2 * (phase.group_size - 1)
        total += phase.count * steps
    return total


def strategy_plan_table(num_nodes: int, model: Union[str, object],
                        strategies: Optional[
                            Sequence[ParallelStrategy]] = None,
                        rack_sizes: Optional[Sequence[int]] = None,
                        leader_indices: Optional[Sequence[int]] = None,
                        algorithms: Iterable[str] = CANDIDATE_ALGORITHMS,
                        policies: Iterable[str] = POLICIES,
                        fidelity: str = "hybrid",
                        top_k: int = 4,
                        ocs: Optional[ReconfigurableOCSSystem] = None,
                        hier: Optional[HierarchicalSystem] = None,
                        **lower_kwargs) -> List[StrategyPlan]:
    """The full co-planning grid: every (strategy × fabric shape ×
    collective × policy) candidate's predicted time.

    The outer loop enumerates parallelization strategies and lowers
    each to its :class:`~repro.models.strategies.DemandProfile`; the
    inner loop prices the profile on both fabrics:

    * **hier-rack** — closed form (exact against the substrate) over
      every (rack size × leader placement); cells whose groups straddle
      rack boundaries are infeasible and skipped;
    * **ocs-reconfig** — the hybrid fidelity of ``plan_wrht``: rank
      (strategy × algorithm) candidates by the reconfiguration-free
      serialization bound, then execute the ``top_k`` survivors'
      concatenated demand programs under every policy (including the
      lookahead DP), so the expensive simulation budget concentrates
      on the promising corner of the grid.

    ``lower_kwargs`` pass through to ``ParallelStrategy.lower``
    (``batch_size``, ``bucket_bytes``, ``microbatches``, ...).
    """
    if fidelity not in STRATEGY_FIDELITIES:
        raise PlanningError(
            f"unknown fidelity {fidelity!r}; choose from "
            f"{STRATEGY_FIDELITIES}")
    if isinstance(model, str):
        model = get_model(model)
    if strategies is None:
        strategies = enumerate_strategies(num_nodes)
    strategies = tuple(strategies)
    for strat in strategies:
        if strat.world != num_nodes:
            raise PlanningError(
                f"strategy {strat.name!r} spans {strat.world} ranks; "
                f"the fabric has {num_nodes}")
    if rack_sizes is None:
        rack_sizes = hier_group_candidates(num_nodes)
    ocs_system = default_ocs(num_nodes) if ocs is None else ocs
    if ocs_system.num_nodes != num_nodes:
        raise PlanningError(
            f"OCS fabric has {ocs_system.num_nodes} nodes; planning for "
            f"{num_nodes}")

    plans: List[StrategyPlan] = []
    profiles: List[Tuple[ParallelStrategy, DemandProfile]] = []
    for strat in strategies:
        profiles.append((strat, strat.lower(model, **lower_kwargs)))

    # -- hier-rack arm: exact closed forms over (rack size x leader) --
    for strat, profile in profiles:
        for g in rack_sizes:
            if num_nodes % g:
                continue
            ells = (default_leader_indices(g) if leader_indices is None
                    else [e for e in leader_indices if 0 <= e < g])
            for ell in ells:
                if hier is None:
                    hs = default_hierarchical(num_nodes, group_size=g,
                                              leader_index=ell)
                else:
                    hs = hier.with_(group_size=g, leader_index=ell)
                t = profile_hier_time(hs, profile)
                if t is None:
                    continue
                plans.append(StrategyPlan(
                    strategy=strat, profile=profile, fabric="hier-rack",
                    algorithm="hier-ring", policy="closed-form",
                    predicted_time=t,
                    num_steps=_profile_hier_steps(profile, num_nodes, g,
                                                  ell),
                    group_size=g, leader_index=ell))

    # -- ocs arm: analytic prune, then simulate the survivors --
    candidates: List[Tuple[float, ParallelStrategy, DemandProfile, str]] = []
    for strat, profile in profiles:
        for algorithm in algorithms:
            try:
                bound = profile_ocs_bound(ocs_system, profile, algorithm)
            except ConfigurationError:
                continue
            candidates.append((bound, strat, profile, algorithm))
    candidates.sort(key=lambda c: (c[0], c[1].name, c[3]))
    if fidelity == "analytic":
        for bound, strat, profile, algorithm in candidates:
            demands_len = sum(
                ph.count * STEP_COUNTS[algorithm](ph.group_size)
                for ph in profile.phases)
            plans.append(StrategyPlan(
                strategy=strat, profile=profile, fabric="ocs-reconfig",
                algorithm=algorithm, policy="analytic",
                predicted_time=bound, num_steps=demands_len))
        return plans
    survivors = candidates if fidelity == "simulate" \
        else candidates[:max(top_k, 1)]
    substrates = _policy_substrates(ocs_system, tuple(policies))
    memo = _PhaseMemo()
    for _, strat, profile, algorithm in survivors:
        try:
            demands, counts, name, _ = _profile_demands(
                profile, algorithm, num_nodes, memo)
        except ScheduleError:
            continue
        if not demands:
            continue
        for policy in substrates:
            sub = substrates[policy]
            report = sub.execute_demands(demands, name=name,
                                         transfer_counts=counts)
            program = sub.last_program
            plans.append(StrategyPlan(
                strategy=strat, profile=profile, fabric="ocs-reconfig",
                algorithm=algorithm, policy=policy,
                predicted_time=report.total_time,
                num_steps=len(report.steps),
                program=program, report=report))
    return plans


def plan_strategy(num_nodes: int, model: Union[str, object],
                  **kwargs) -> StrategyPlan:
    """Co-plan parallelization, fabric shape, collective, and topology
    program for training ``model`` on ``num_nodes`` nodes — the
    two-level search of :func:`strategy_plan_table` reduced to its
    fastest cell (deterministic tie-breaks)."""
    plans = strategy_plan_table(num_nodes, model, **kwargs)
    if not plans:
        raise PlanningError(
            f"no feasible strategy plan for N={num_nodes}")
    return min(plans, key=_strategy_key)


def _strategy_key(plan: StrategyPlan) -> Tuple[float, int, str, int, str,
                                               str]:
    policy_rank = (POLICIES.index(plan.policy)
                   if plan.policy in POLICIES else len(POLICIES))
    return (plan.predicted_time, plan.num_steps, plan.fabric, policy_rank,
            plan.algorithm, plan.strategy.name)
