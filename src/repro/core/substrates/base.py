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
from dataclasses import dataclass, field
from typing import Any, Iterable, List, Mapping, Tuple, Union

from ...caching import CacheStats, LruCache
from ...collectives.schedule import Schedule
from ...config import Workload
from ...errors import ConfigurationError
from ...faults.events import FaultOutcome, FaultyRun

__all__ = [
    "CacheStats",
    "LruCache",
    "StepReport",
    "ExecutionReport",
    "SubstrateInfo",
    "ExecutionJob",
    "JobLike",
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


@dataclass(frozen=True)
class ExecutionJob:
    """One (schedule, workload) unit for :meth:`Substrate.execute_many`.

    ``options`` carries per-job keyword arguments for ``execute``
    (e.g. ``{"striping": "off"}`` on the optical ring).
    """

    schedule: Schedule
    workload: Workload
    options: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def of(cls, job: "JobLike") -> "ExecutionJob":
        """Coerce a job-like value (job, 2-tuple, or 3-tuple)."""
        if isinstance(job, ExecutionJob):
            return job
        schedule, workload, *rest = job
        opts: Mapping[str, Any] = rest[0] if rest else {}
        return cls(schedule=schedule, workload=workload,
                   options=tuple(sorted(opts.items())))


JobLike = Union[ExecutionJob, Tuple[Schedule, Workload],
                Tuple[Schedule, Workload, Mapping[str, Any]]]


class Substrate(abc.ABC):
    """Abstract interconnect model executing schedules into reports."""

    #: Registry-facing name; subclasses override (instances may refine).
    name: str = "substrate"

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
        events, the substrate-specific :meth:`_execute_faulty` replays
        the schedule step by step, sampling the plan's folded
        :class:`~repro.faults.FaultState` at each step boundary
        (synchronous-step semantics: a fault takes effect at the next
        barrier), rerouting affected steps on the degraded fabric and
        stalling step starts during OCS reconfiguration overruns.
        Raises :class:`~repro.errors.DegradedError` when failures
        partition the fabric mid-run.
        """
        if plan is None or not getattr(plan, "events", ()):
            return FaultyRun(report=self.execute(schedule, workload,
                                                 **options))
        run = self._execute_faulty(schedule, workload, plan, **options)
        self._record_fault_outcome(run.outcome)
        return run

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan: Any, **options: Any) -> FaultyRun:
        """Substrate-specific degraded replay (override to support)."""
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

    def execute_many(self, jobs: Iterable[JobLike]) -> List[ExecutionReport]:
        """Execute a batch of jobs on this one substrate instance.

        The batch form exists so callers (the serving engine, sweeps)
        hold a single substrate — and therefore a single network object
        and a warm RWA cache — across a whole grid of executions.

        Two batch-only options are peeled off before dispatch to
        ``execute``:

        * ``nodes`` — a sequence of physical node ids: the job's
          schedule (authored over logical ranks ``0..k-1``) is placed
          onto those nodes first, so strategy phases that own a *subset*
          of the fabric (a rack's tensor-parallel group, a strided
          data-parallel group) run where the co-planner put them;
        * ``total_nodes`` — the fabric width the placement renames into
          (default ``max(nodes) + 1``).
        """
        from ...collectives.placement import place_schedule

        out: List[ExecutionReport] = []
        for job in jobs:
            j = ExecutionJob.of(job)
            opts = dict(j.options)
            nodes = opts.pop("nodes", None)
            total = opts.pop("total_nodes", None)
            schedule = j.schedule
            if nodes is not None:
                nodes = [int(n) for n in nodes]
                schedule = place_schedule(
                    schedule, nodes,
                    max(nodes) + 1 if total is None else int(total))
            out.append(self.execute(schedule, j.workload, **opts))
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


#: Bound on shared caches kept per substrate and cache kind (LRU).
_SHARED_CACHES_MAX = 128


class FluidCacheMixin:
    """Shared cache plumbing for substrates driven by the fluid engine.

    Substrates that pool
    :class:`~repro.simulation.fluid.FluidNetworkSimulator` instances
    (electrical, optical torus, reconfigurable OCS) mix this in and
    call :meth:`_register_fluid_simulator` on every simulator they
    create; in return they get one pattern cache per *topology
    signature* shared across same-topology simulators (two systems
    differing only in overheads build identical topologies and their
    steps are interchangeable) and aggregated counters for
    ``describe()``.
    """

    def _fluid_pattern_caches(self) -> LruCache:
        """Topology signature → shared pattern cache (LRU-bounded).

        Bounded so substrates that visit many distinct topologies (the
        OCS fabric builds one per circuit configuration) cannot pin an
        unbounded set of pattern caches in memory; a signature evicted
        here simply re-registers on next use.
        """
        caches = getattr(self, "_fluid_caches", None)
        if caches is None:
            caches = self._fluid_caches = LruCache(_SHARED_CACHES_MAX)
        return caches

    def _fluid_compile_caches(self) -> LruCache:
        """Shape signature → shared compiled-structure cache
        (LRU-bounded).

        The same shape as :meth:`_fluid_pattern_caches`, but keyed by
        topology *shape* signature (capacities excluded), so every
        bandwidth variant of one topology — across sweep cells and
        substrate instances — shares one set of compiled
        :class:`~repro.simulation.flows.FlowBatchStructure` objects.
        """
        caches = getattr(self, "_compile_caches", None)
        if caches is None:
            caches = self._compile_caches = LruCache(_SHARED_CACHES_MAX)
        return caches

    def _topo_path_caches(self) -> LruCache:
        """Topology signature → shared routed-path cache (LRU-bounded).

        The same shape as :meth:`_fluid_pattern_caches`, for the
        topologies' routed-path LRUs, so BFS-heavy ``CircuitTopology``
        routing is paid once per distinct circuit configuration.
        """
        caches = getattr(self, "_topo_caches", None)
        if caches is None:
            caches = self._topo_caches = LruCache(_SHARED_CACHES_MAX)
        return caches

    def _register_fluid_simulator(self, sim: Any) -> None:
        """Adopt the shared caches for a new simulator.

        Simulators over same-signature topologies (identical links
        *and* routing class) share one pattern cache object, so
        repeated configs reuse each other's solves, and their
        topologies share one routed-path cache (routing is
        deterministic, so a shared route is exactly what the BFS/arc
        walk would recompute).  Same-shape ones share one compile
        cache.
        """
        topology = sim.topology
        signature = topology.signature()
        self._share_cache(self._topo_path_caches(), signature,
                          topology.path_cache, topology.use_path_cache)
        if sim.compile_cache is not None:
            self._share_cache(
                self._fluid_compile_caches(), topology.shape_signature(),
                sim.compile_cache, sim.use_compile_cache)
        if sim.pattern_cache is None:
            return
        self._share_cache(self._fluid_pattern_caches(), signature,
                          sim.pattern_cache, sim.use_pattern_cache)

    @staticmethod
    def _share_cache(caches: LruCache, signature: str, cache: LruCache,
                     adopt: Any) -> None:
        """Adopt one shared cache for :meth:`_register_fluid_simulator`.

        If ``signature`` already has a shared cache object, ``adopt`` it
        onto the new owner; otherwise the owner's own cache becomes the
        shared object for ``signature``.
        """
        existing = caches.get(signature)
        if existing is not None:
            if existing is not cache:
                adopt(existing)
            return
        caches.put(signature, cache)

    def _schedule_steps(self, schedule: Schedule, workload: Workload,
                        ) -> List[List[Tuple[int, int, float]]]:
        """Every step of ``schedule`` as ``(src, dst, bytes)`` batches —
        the input shape of ``FluidNetworkSimulator.step_time_many``."""
        from ...collectives.primitives import transfer_bytes

        return [[(t.src, t.dst,
                  transfer_bytes(t, workload.data_bytes,
                                 schedule.num_chunks))
                 for t in step]
                for step in schedule.steps]

    def _fluid_step_times(self, sim: Any, schedule: Schedule,
                          workload: Workload) -> List[float]:
        """All step makespans of ``schedule`` in one fused solve.

        The one call the fluid substrates' ``execute`` paths make per
        schedule: ``FluidNetworkSimulator.run_schedule`` canonicalizes
        and dedupes the whole step list up front, so repeated step
        patterns pay neither compile nor per-step dispatch.
        """
        return sim.step_time_many(self._schedule_steps(schedule, workload))

    # -- degraded execution --------------------------------------------------

    def _degraded_simulator(self, system: Any, state: Any) -> Any:
        """A pooled fluid simulator on the fault-masked topology.

        Keyed by ``(system, failed links, failed nodes)`` so repeated
        steps under a stable fault state reuse one simulator — whose
        pattern cache, keyed by the *degraded* topology's signature via
        :meth:`_register_fluid_simulator`, can never leak solutions
        across the failure boundary.
        """
        from ...simulation.fluid import FluidNetworkSimulator

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

    def _fluid_faulty_run(self, system: Any, schedule: Schedule,
                          workload: Workload, plan: Any,
                          healthy: ExecutionReport, *,
                          overhead: float, tuning: float = 0.0) -> FaultyRun:
        """Step-by-step degraded replay for fluid-driven substrates.

        ``healthy`` is the substrate's own fault-free report for the
        same call (it also primes every cache): steps executed under a
        clean fault state reuse its per-step makespans verbatim, which
        is what makes a fault followed by recovery converge back to the
        fault-free timings exactly.  Steps under failures re-solve on
        the degraded topology; OCS stalls delay step starts.
        """
        steps = self._schedule_steps(schedule, workload)
        timeline = plan.timeline()
        report = ExecutionReport(schedule_name=schedule.name,
                                 substrate=healthy.substrate)
        degraded: List[int] = []
        repair = 0.0
        stall_total = 0.0
        now = 0.0
        for idx, (step, ref) in enumerate(zip(steps, healthy.steps)):
            state = timeline.advance(now)
            stall = max(0.0, state.stall_until - now)
            if state.is_clean:
                makespan = ref.serialization_time
            else:
                sim = self._degraded_simulator(system, state)
                makespan = sim.step_time(step)
                degraded.append(idx)
                repair += max(0.0, makespan - ref.serialization_time)
            duration = tuning + overhead + stall + makespan
            stall_total += stall
            now += duration
            report.steps.append(StepReport(
                index=idx, duration=duration,
                serialization_time=makespan,
                propagation_time=0.0,
                tuning_time=tuning,
                overhead_time=overhead + stall,
                num_transfers=ref.num_transfers))
        report.total_time = now
        outcome = FaultOutcome(
            events_applied=timeline.applied,
            faults_survived=len(degraded),
            degraded_steps=tuple(degraded),
            repair_overhead=repair,
            stall_time=stall_total)
        return FaultyRun(report=report, outcome=outcome)

    def fluid_cache_info(self) -> CacheStats:
        """Pattern-cache counters aggregated over the shared caches."""
        total = CacheStats()
        for cache in self._fluid_pattern_caches().values():
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
