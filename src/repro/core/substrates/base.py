"""Substrate interface: execute collective schedules, report timings.

A *substrate* is a stateful interconnect model that can execute any
:class:`~repro.collectives.schedule.Schedule` under synchronous-step
semantics (a step completes when its slowest transfer completes; the
next step starts then) and return an :class:`ExecutionReport`.

Substrates keep their expensive simulation state (optical networks,
fluid simulators, RWA caches) alive across calls, so drivers that
execute many schedules on one system — the planner's candidate sweep,
the ablation grids, the serving engine — pay construction cost once.
:meth:`Substrate.execute_many` is the batch entry point those drivers
use.
"""

from __future__ import annotations

import abc
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Iterable, List, Optional, Tuple

from ...caching import CacheStats, LruCache
from ...collectives.primitives import transfer_bytes
from ...collectives.schedule import Schedule
from ...config import Workload
from ...errors import ConfigurationError
from ...faults.events import FaultOutcome, FaultyRun
from ...simulation.fluid import FluidNetworkSimulator

__all__ = [
    "CacheStats",
    "LruCache",
    "StepReport",
    "ExecutionReport",
    "SubstrateInfo",
    "FaultReplay",
    "Substrate",
    "FluidCacheMixin",
]


@dataclass(frozen=True)
class StepReport:
    """Timing decomposition of one synchronous step."""

    index: int
    duration: float
    serialization_time: float
    propagation_time: float
    tuning_time: float
    overhead_time: float
    num_transfers: int
    striping: int = 1
    wavelength_demand: int = 0
    spectrum_span: int = 0


@dataclass
class ExecutionReport:
    """Outcome of executing a schedule on a substrate."""

    schedule_name: str
    substrate: str
    total_time: float = 0.0
    steps: List[StepReport] = field(default_factory=list)

    @property
    def num_steps(self) -> int:
        """Number of executed steps."""
        return len(self.steps)

    @property
    def total_serialization(self) -> float:
        """Sum of per-step serialization components."""
        return sum(s.serialization_time for s in self.steps)

    @property
    def total_overhead(self) -> float:
        """Everything that is not serialization."""
        return self.total_time - self.total_serialization

    def peak_wavelength_demand(self) -> int:
        """Worst per-step wavelength demand (optical runs only)."""
        return max((s.wavelength_demand for s in self.steps), default=0)


@dataclass(frozen=True)
class SubstrateInfo:
    """Metadata returned by :meth:`Substrate.describe`."""

    name: str
    kind: str
    description: str
    parameters: Tuple[Tuple[str, Any], ...] = ()

    def parameter(self, key: str, default: Any = None) -> Any:
        """Value of parameter ``key`` (or ``default``)."""
        return dict(self.parameters).get(key, default)


class FaultReplay:
    """The fault bookkeeping of one degraded replay.

    A substrate's one step loop takes an optional replay: every step
    calls :meth:`enter` at its start, and :meth:`degrade` when it ran
    under failures; :meth:`result` wraps the finished report.  Without
    a replay the same loop is the fault-free ``execute``.

    Construction checks every event's target against the fabric, so a
    plan naming a node, link endpoint or wavelength the fabric does not
    have fails before any step runs.  Negative ids are left alone:
    switch nodes have negative ids on switched topologies.
    """

    def __init__(self, plan: Any, num_nodes: int,
                 num_wavelengths: Optional[int] = None) -> None:
        for e in plan.events:
            nodes = e.link or (() if e.node is None else (e.node,))
            if max(nodes, default=-1) >= num_nodes:
                has = f"{num_nodes} nodes"
            elif (num_wavelengths is not None and e.wavelength is not None
                  and e.wavelength >= num_wavelengths):
                has = f"{num_wavelengths} wavelengths"
            else:
                continue
            target = (f"link={e.link}" if e.link is not None
                      else f"node={e.node}" if e.node is not None
                      else f"wavelength={e.wavelength}")
            raise ConfigurationError(
                f"fault event {e.kind.value} {target} at t={e.time} "
                f"targets hardware the fabric does not have ({has})")
        self._timeline = plan.timeline()
        self._degraded: List[int] = []
        self._repair = 0.0
        self._stall = 0.0

    def enter(self, now: float) -> Tuple[Any, float]:
        """Fold the plan up to ``now``: the
        :class:`~repro.faults.FaultState` the step runs under, and the
        OCS stall that delays its start."""
        state = self._timeline.advance(now)
        stall = max(0.0, state.stall_until - now)
        self._stall += stall
        return state, stall

    def degrade(self, index: int, extra: float) -> None:
        """Record step ``index`` as run under failures, ``extra`` seconds
        slower than on the healthy fabric (a faster step adds nothing)."""
        self._degraded.append(index)
        self._repair += max(0.0, extra)

    def result(self, report: ExecutionReport) -> FaultyRun:
        """The replayed ``report`` with its fault accounting."""
        return FaultyRun(report=report, outcome=FaultOutcome(
            events_applied=self._timeline.applied,
            faults_survived=len(self._degraded),
            degraded_steps=tuple(self._degraded),
            repair_overhead=self._repair,
            stall_time=self._stall))


class Substrate(abc.ABC):
    """Abstract interconnect model executing schedules into reports."""

    #: Registry-facing name; subclasses override (instances may refine).
    name: str = "substrate"

    #: The configured system; ``None`` sizes a default per schedule.
    _system: Any = None

    @abc.abstractmethod
    def execute(self, schedule: Schedule, workload: Workload,
                **options: Any) -> ExecutionReport:
        """Execute ``schedule`` moving ``workload`` and report timings."""

    @abc.abstractmethod
    def describe(self) -> SubstrateInfo:
        """Static metadata: name, kind, and model parameters."""

    # -- fault injection -----------------------------------------------------

    def execute_with_faults(self, schedule: Schedule, workload: Workload,
                            plan: Any = None,
                            **options: Any) -> FaultyRun:
        """Execute ``schedule`` while ``plan``'s faults play out.

        The keystone contract: a ``plan`` that is ``None`` or has zero
        events is a pure passthrough to :meth:`execute` — the report is
        the fault-free one, **bit for bit**, on every substrate.  With
        events, the substrate-specific :meth:`_execute_faulty` runs the
        substrate's one step loop under a :class:`FaultReplay`,
        sampling the plan's folded :class:`~repro.faults.FaultState` at
        each step boundary (synchronous-step semantics: a fault takes
        effect at the next barrier), rerouting affected steps on the
        degraded fabric and stalling step starts during OCS
        reconfiguration overruns.  Raises
        :class:`~repro.errors.ConfigurationError` before any step runs
        when an event targets hardware the fabric does not have, and
        :class:`~repro.errors.DegradedError` when failures partition
        the fabric mid-run.
        """
        if plan is None or not getattr(plan, "events", ()):
            return FaultyRun(report=self.execute(schedule, workload,
                                                 **options))
        run = self._execute_faulty(schedule, workload, plan, **options)
        self._record_fault_outcome(run.outcome)
        return run

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan: Any, **options: Any) -> FaultyRun:
        """Substrate-specific degraded replay: override to run the
        substrate's step loop under a :class:`FaultReplay`."""
        raise ConfigurationError(
            f"substrate {self.name!r} does not support fault injection "
            f"(got a plan with {len(plan.events)} events); use an empty "
            f"FaultPlan for the fault-free passthrough")

    def _record_fault_outcome(self, outcome: FaultOutcome) -> None:
        """Accumulate fault counters surfaced via :meth:`describe`."""
        self._faults_survived = (getattr(self, "_faults_survived", 0)
                                 + outcome.faults_survived)
        self._repair_overhead = (getattr(self, "_repair_overhead", 0.0)
                                 + outcome.repair_overhead)
        self._fault_stall_time = (getattr(self, "_fault_stall_time", 0.0)
                                  + outcome.stall_time)
        self._fault_events_applied = (
            getattr(self, "_fault_events_applied", 0)
            + outcome.events_applied)

    def _fault_params(self) -> List[Tuple[str, Any]]:
        """The ``describe()`` parameters of the fault counters."""
        return [
            ("faults_survived", getattr(self, "_faults_survived", 0)),
            ("repair_overhead",
             round(getattr(self, "_repair_overhead", 0.0), 9)),
            ("fault_stall_time",
             round(getattr(self, "_fault_stall_time", 0.0), 9)),
            ("fault_events_applied",
             getattr(self, "_fault_events_applied", 0)),
        ]

    def execute_many(self, jobs: Iterable[tuple]) -> List[ExecutionReport]:
        """Execute ``(schedule, workload[, options])`` jobs in order.

        The batch form exists so callers (the serving engine, sweeps)
        hold a single substrate — and therefore a single network object
        and a warm RWA cache — across a whole grid of executions.
        ``options`` maps keyword arguments of :meth:`execute` (e.g.
        ``{"striping": "off"}`` on the optical ring).  Schedules that
        own a subset of the fabric are placed by the caller
        (:mod:`repro.collectives.placement`).
        """
        return [self.execute(schedule, workload, **(opts[0] if opts else {}))
                for schedule, workload, *opts in jobs]

    # -- system sizing -------------------------------------------------------

    def _resolve_system(self, schedule: Schedule) -> Any:
        """The configured system (which must span ``schedule``), or the
        substrate's default system sized to it."""
        if self._system is None:
            return self._default_system(schedule.num_nodes)
        if schedule.num_nodes > self._system.num_nodes:
            raise ConfigurationError(
                f"schedule spans {schedule.num_nodes} nodes; system "
                f"has {self._system.num_nodes}")
        return self._system

    def _default_system(self, num_nodes: int) -> Any:
        """The system a substrate built without one uses for
        ``num_nodes`` nodes (override to size one)."""
        raise ConfigurationError(
            f"substrate {self.name!r} needs an explicit system")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: Bound on the caches a fluid substrate keeps per kind: shared compile
#: caches (LRU) and the pattern caches its ``describe()`` sums.
_SHARED_CACHES_MAX = 128


class FluidCacheMixin:
    """Shared simulators, caches and step loop for fluid-driven substrates.

    Substrates that pool
    :class:`~repro.simulation.fluid.FluidNetworkSimulator` instances
    (electrical, optical torus, hier-rack, reconfigurable OCS) mix this
    in.  :meth:`_simulator` pools one simulator per system over the
    substrate's ``_build_topology(system)``, and every simulator is
    passed through :meth:`_register_fluid_simulator`, which shares one
    compile cache per topology *shape* across simulators and records
    each simulator's own pattern cache for the ``describe()``
    counters.  Substrates that time each step as one fluid batch plus
    fixed charges (electrical, torus) run :meth:`_fluid_run` for both
    ``execute`` and their fault replay.
    """

    def _fluid_pattern_caches(self) -> Deque[LruCache]:
        """The registered simulators' pattern caches, oldest first.

        Bounded so substrates that visit many distinct topologies (the
        OCS fabric builds one per circuit configuration) cannot pin an
        unbounded set of pattern caches in memory; the oldest drops
        out of the ``describe()`` sums first.
        """
        caches = getattr(self, "_fluid_caches", None)
        if caches is None:
            caches = self._fluid_caches = deque(maxlen=_SHARED_CACHES_MAX)
        return caches

    def _fluid_compile_caches(self) -> LruCache:
        """Shape signature → shared compiled-structure cache
        (LRU-bounded).

        Keyed by topology *shape* signature (capacities excluded), so
        every bandwidth variant of one topology — across sweep cells and
        substrate instances — shares one set of compiled
        :class:`~repro.simulation.flows.FlowBatchStructure` objects; a
        signature evicted here simply re-registers on next use.
        """
        caches = getattr(self, "_compile_caches", None)
        if caches is None:
            caches = self._compile_caches = LruCache(_SHARED_CACHES_MAX)
        return caches

    def _register_fluid_simulator(self, sim: Any) -> None:
        """Adopt the shared compile cache for a new simulator and count
        its pattern cache in the ``describe()`` sums.

        Same-shape simulators share one compile cache object, so
        bandwidth variants reuse each other's compiled structures.
        """
        shared = self._fluid_compile_caches()
        shape = sim.topology.shape_signature()
        existing = shared.get(shape)
        if existing is None:
            shared.put(shape, sim.compile_cache)
        elif existing is not sim.compile_cache:
            sim.use_compile_cache(existing)
        self._fluid_pattern_caches().append(sim._pattern_cache)

    def _simulator(self, system: Any) -> FluidNetworkSimulator:
        """The pooled fluid simulator of ``system``, over
        ``self._build_topology(system)`` (built once per system)."""
        sims = getattr(self, "_sims", None)
        if sims is None:
            sims = self._sims = {}
        sim = sims.get(system)
        if sim is None:
            sim = sims[system] = FluidNetworkSimulator(
                self._build_topology(system))
            self._register_fluid_simulator(sim)
        return sim

    def _degraded_simulator(self, system: Any,
                            state: Any) -> FluidNetworkSimulator:
        """A pooled fluid simulator on the fault-masked topology.

        Keyed by ``(system, failed links, failed nodes)`` so repeated
        steps under a stable fault state reuse one simulator, whose own
        pattern cache never sees a healthy step and so can never leak
        solutions across the failure boundary.
        """
        pool = getattr(self, "_degraded_sim_pool", None)
        if pool is None:
            pool = self._degraded_sim_pool = LruCache(64)
        key = (system, tuple(sorted(state.failed_links)),
               tuple(sorted(state.failed_nodes)))
        sim = pool.get(key)
        if sim is None:
            topo = self._build_topology(system).with_failed_links(
                state.failed_links, state.failed_nodes)
            sim = FluidNetworkSimulator(topo)
            self._register_fluid_simulator(sim)
            pool.put(key, sim)
        return sim

    def _fluid_run(self, system: Any, schedule: Schedule, workload: Workload,
                   replay: Optional[FaultReplay] = None) -> ExecutionReport:
        """The one step loop of the fluid substrates (electrical, torus).

        Every step makespan comes from one fused solve: the whole
        schedule is canonicalized and deduped up front (a ring schedule
        has 2(N-1) identical steps), and repeats hit the simulator's
        pattern cache.  The substrate's ``_step_charges(system)`` names
        the report and gives the tuning and overhead charged on top of
        each makespan.  Under a ``replay``, a step that
        starts in a clean fault state keeps its healthy makespan, which
        is what makes a fault followed by recovery converge back to the
        fault-free timings exactly; a degraded step re-solves on the
        fault-masked topology, and OCS stalls delay step starts.
        """
        name, tuning, overhead = self._step_charges(system)
        steps = [[(t.src, t.dst,
                   transfer_bytes(t, workload.data_bytes, schedule.num_chunks))
                  for t in step]
                 for step in schedule.steps]
        makespans = self._simulator(system).step_time_many(steps)
        report = ExecutionReport(schedule_name=schedule.name, substrate=name)
        now = 0.0
        for idx, (step, makespan) in enumerate(zip(steps, makespans)):
            stall = 0.0
            if replay is not None:
                state, stall = replay.enter(now)
                if not state.is_clean:
                    healthy = makespan
                    makespan = self._degraded_simulator(
                        system, state).step_time(step)
                    replay.degrade(idx, makespan - healthy)
            duration = tuning + overhead + stall + makespan
            now += duration
            report.steps.append(StepReport(
                index=idx, duration=duration,
                serialization_time=makespan,
                propagation_time=0.0,
                tuning_time=tuning,
                overhead_time=overhead + stall,
                num_transfers=len(step)))
        report.total_time = now
        return report

    def fluid_cache_info(self) -> CacheStats:
        """Pattern-cache counters aggregated over the registered
        simulators."""
        total = CacheStats()
        for cache in self._fluid_pattern_caches():
            total = total + cache.stats()
        return total

    def compile_cache_info(self) -> CacheStats:
        """Compile-cache counters aggregated over the shared caches."""
        total = CacheStats()
        for cache in self._fluid_compile_caches().values():
            total = total + cache.stats()
        return total

    def _fluid_cache_params(self) -> List[Tuple[str, Any]]:
        """The ``describe()`` parameters every fluid substrate reports."""
        stats = self.fluid_cache_info()
        cstats = self.compile_cache_info()
        return [("fluid_cache_hits", stats.hits),
                ("fluid_cache_misses", stats.misses),
                ("fluid_cache_hit_rate", round(stats.hit_rate, 4)),
                ("fluid_cache_skipped", stats.skipped),
                ("compile_cache_hits", cstats.hits),
                ("compile_cache_misses", cstats.misses),
                ("compile_cache_hit_rate", round(cstats.hit_rate, 4)),
                ("compile_cache_skipped", cstats.skipped)]
