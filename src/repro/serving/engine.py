"""The serving engine: stream jobs through one shared warm substrate.

:class:`ServingEngine` closes the loop between the other serving
pieces:

1. the **traffic** list (arrival-sorted
   :class:`~repro.serving.jobs.JobSpec`\\ s) is replayed event by
   event;
2. the **scheduler** places each arrival onto a node set of the shared
   substrate — contiguous first-fit, optionally scatter under
   fragmentation — or queues it (never drops);
3. each placed job's **service rate** is measured, not assumed: every
   per-step message is dispatched through the size-adaptive
   :class:`~repro.serving.dispatch.CollectivePolicy`, its schedule
   re-based to the job's placement and executed on the *shared*
   substrate instance — so the RWA/pattern/compile caches stay warm
   across thousands of jobs;
4. **contention** between concurrent jobs comes from one combined
   fluid batch per concurrency epoch
   (:class:`~repro.serving.contention.ContentionModel`): each job's
   step time stretches by its max-min-fair slowdown until the set of
   running jobs changes.

Progress is fluid (jobs advance fractional steps between events), so
the event loop is exact: events are arrivals, completions, and the
re-solves they trigger.  A lone job has slowdown 1.0 and its placement
is the identity, so a single-job run reproduces the standalone
substrate path bit for bit — the parity the tests pin.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..collectives.primitives import transfer_bytes
from ..collectives.registry import generate_collective
from ..collectives.schedule import Schedule
from ..config import (OpticalRingSystem, ReconfigurableOCSSystem, Workload,
                      default_electrical, default_hierarchical, default_ocs,
                      default_optical, default_torus)
from ..core.substrates import Substrate, pooled_substrate
from ..core.substrates.registry import cache_stats
from ..errors import ConfigurationError, ScheduleError
from ..faults import FaultPlan
from .contention import ContentionModel, contention_topology
from .dispatch import CollectivePolicy, adaptive_policy, place_schedule
from .jobs import JobSpec
from .scheduler import OnlineScheduler, Placement

__all__ = ["ServingEngine", "ServingReport", "JobRecord", "RetryPolicy"]

#: Remaining-step tolerance below which a job counts as finished.
_STEP_EPS = 1e-9

#: Substrate-name -> default shared system factory.
_DEFAULT_SYSTEMS = {
    "electrical-ring": lambda n: default_electrical(n).with_(
        topology="ring"),
    "electrical-switch": lambda n: default_electrical(n),
    "optical-ring": lambda n: default_optical(n),
    "optical-torus": lambda n: default_torus(n),
    "ocs-reconfig": lambda n: default_ocs(n),
    "hier-rack": lambda n: default_hierarchical(n),
}


@dataclass(frozen=True)
class RetryPolicy:
    """How killed jobs come back: bounded retries, exponential backoff.

    A job whose placement loses a node restarts from step zero after
    ``backoff * factor**(attempt - 1)`` seconds (attempt 1 waits
    ``backoff``).  After ``max_retries`` failed attempts the job is
    recorded in :attr:`ServingReport.failed_jobs` instead of requeued —
    bounded, so a permanently dead fabric cannot spin forever.
    """

    max_retries: int = 3
    backoff: float = 1e-3
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if not (self.backoff > 0 and math.isfinite(self.backoff)):
            raise ConfigurationError(
                f"backoff must be a finite delay > 0, got {self.backoff}")
        if not (self.factor >= 1.0 and math.isfinite(self.factor)):
            raise ConfigurationError(
                f"factor must be >= 1.0, got {self.factor}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based)."""
        return self.backoff * self.factor ** (attempt - 1)


@dataclass(frozen=True)
class JobRecord:
    """One job's lifecycle through the serving system."""

    job: JobSpec
    nodes: Tuple[int, ...]
    start_time: float
    completion_time: float
    step_time: float
    algorithms: Tuple[str, ...]
    #: Times this job was killed by a fault and restarted (0 = clean).
    attempts: int = 0

    @property
    def offset(self) -> int:
        """Lowest substrate node of the placement."""
        return self.nodes[0]

    @property
    def wait_time(self) -> float:
        """Queue wait: placement minus arrival."""
        return self.start_time - self.job.arrival_time

    @property
    def completion(self) -> float:
        """Job-completion time (JCT): completion minus arrival."""
        return self.completion_time - self.job.arrival_time

    @property
    def service_time(self) -> float:
        """Time actually running (JCT minus queue wait)."""
        return self.completion_time - self.start_time


@dataclass
class ServingReport:
    """Outcome of one serving run: per-job records plus fleet metrics."""

    capacity: int
    substrate: str
    policy: str
    collectives: str
    records: List[JobRecord] = field(default_factory=list)
    #: ``(time, depth)`` samples taken after every event.
    queue_samples: List[Tuple[float, int]] = field(default_factory=list)
    #: Consolidated substrate cache counters at end of run.
    cache_stats: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Messages dispatched per collective algorithm.
    algorithm_mix: Dict[str, int] = field(default_factory=dict)
    #: Jobs that exhausted their retry budget (never completed).
    failed_jobs: List[JobSpec] = field(default_factory=list)
    #: Running placements killed by faults (each may retry).
    preemptions: int = 0
    #: Successful resubmissions after a kill.
    retries: int = 0
    #: Integral of down-node count over the run (node-seconds).
    node_downtime: float = 0.0
    #: Fault-plan events folded during the run.
    fault_events_applied: int = 0

    @property
    def num_jobs(self) -> int:
        """Completed jobs."""
        return len(self.records)

    @property
    def availability(self) -> float:
        """Mean fraction of nodes in service over the run (1.0 = clean)."""
        span = self.makespan
        if span <= 0 or self.capacity <= 0:
            return 1.0
        return 1.0 - self.node_downtime / (self.capacity * span)

    @property
    def total_steps(self) -> int:
        """Training/decode steps served across all jobs."""
        return sum(r.job.num_steps for r in self.records)

    @property
    def makespan(self) -> float:
        """Last completion time (simulated seconds from t=0)."""
        return max((r.completion_time for r in self.records), default=0.0)

    @property
    def throughput_jobs(self) -> float:
        """Completed jobs per simulated second."""
        span = self.makespan
        return self.num_jobs / span if span > 0 else 0.0

    @property
    def throughput_steps(self) -> float:
        """Served steps per simulated second."""
        span = self.makespan
        return self.total_steps / span if span > 0 else 0.0

    def completion_times(self) -> np.ndarray:
        """Every job's JCT, in completion order."""
        return np.array([r.completion for r in self.records], dtype=float)

    def jct(self, percentile: Optional[float] = None) -> float:
        """Mean JCT, or the ``percentile``-th JCT when given."""
        times = self.completion_times()
        if not times.size:
            return 0.0
        if percentile is None:
            return float(times.mean())
        return float(np.percentile(times, percentile))

    @property
    def max_queue_depth(self) -> int:
        """Deepest the wait queue ever got."""
        return max((d for _, d in self.queue_samples), default=0)

    @property
    def mean_queue_depth(self) -> float:
        """Time-weighted average queue depth over the run."""
        if len(self.queue_samples) < 2:
            return 0.0
        total = 0.0
        for (t0, d), (t1, _) in zip(self.queue_samples,
                                    self.queue_samples[1:]):
            total += d * (t1 - t0)
        span = self.queue_samples[-1][0] - self.queue_samples[0][0]
        return total / span if span > 0 else 0.0

    def headline(self) -> Dict[str, float]:
        """The metrics block reports and benches record."""
        return {
            "jobs": float(self.num_jobs),
            "steps": float(self.total_steps),
            "makespan_s": self.makespan,
            "throughput_jobs_per_s": self.throughput_jobs,
            "throughput_steps_per_s": self.throughput_steps,
            "jct_mean_s": self.jct(),
            "jct_p50_s": self.jct(50),
            "jct_p99_s": self.jct(99),
            "max_queue_depth": float(self.max_queue_depth),
            "mean_queue_depth": self.mean_queue_depth,
            "failed_jobs": float(len(self.failed_jobs)),
            "preemptions": float(self.preemptions),
            "retries": float(self.retries),
            "availability": self.availability,
        }


@dataclass
class _Running:
    """Mutable execution state of one placed job."""

    placement: Placement
    step_time: float
    flows: List[Tuple[int, int, float]]
    algorithms: Tuple[str, ...]
    remaining: float
    slowdown: float = 1.0

    @property
    def rate_denominator(self) -> float:
        """Seconds of wall clock per step under the current slowdown."""
        return self.step_time * self.slowdown

    def completion_at(self, now: float) -> float:
        """Projected completion if the current epoch holds."""
        return now + self.remaining * self.rate_denominator


class ServingEngine:
    """Run job streams on one shared substrate (see module docstring).

    Parameters
    ----------
    substrate_name:
        Registry name of the shared fabric; the default system at
        ``capacity`` nodes is derived per name
        (``"electrical-ring"`` by default).
    system:
        Explicit shared system; overrides ``capacity``.
    capacity:
        Total substrate nodes when ``system`` is None.
    policy:
        Queue policy name (``"fifo"``, ``"sjf"``, ``"priority"``).
    placement:
        ``"contiguous"`` (default) queues a job until one unbroken
        range frees up; ``"scatter"`` falls back to fragmented node
        sets — lower queueing delay, but scattered jobs share links
        and the contention model bites.
    collectives:
        The per-message :class:`CollectivePolicy`; defaults to the
        size-adaptive switch.
    substrate:
        A ready :class:`~repro.core.substrates.Substrate` to execute
        on (benches share one warm instance across engines); defaults
        to the pooled instance for (``substrate_name``, ``system``).
    substrate_options:
        Extra keyword arguments for every ``execute`` call (e.g.
        ``{"striping": "off"}`` on the optical ring).
    """

    def __init__(self, substrate_name: str = "electrical-ring",
                 system: Optional[Any] = None,
                 capacity: int = 64,
                 policy: str = "fifo",
                 placement: str = "contiguous",
                 collectives: Optional[CollectivePolicy] = None,
                 substrate: Optional[Substrate] = None,
                 substrate_options: Optional[Mapping[str, Any]] = None,
                 ) -> None:
        if system is None:
            try:
                system = _DEFAULT_SYSTEMS[substrate_name](capacity)
            except KeyError:
                raise ConfigurationError(
                    f"no default system for substrate {substrate_name!r}; "
                    f"pass system= explicitly") from None
        self.system = system
        self.capacity = int(system.num_nodes)
        self.substrate_name = substrate_name
        self.policy = policy
        self.placement = placement
        self.collectives = (collectives if collectives is not None
                            else adaptive_policy())
        self._substrate = (substrate if substrate is not None
                           else pooled_substrate(substrate_name, system))
        self._options = dict(substrate_options or {})
        self._contention = ContentionModel(contention_topology(system))
        # Memoized per-placement schedules, job profiles and message
        # sizes: thousands of jobs collapse onto a handful of (width,
        # offset, sizes) classes and a few sizing keys.
        self._schedules: Dict[Tuple, Schedule] = {}
        self._profiles: Dict[Tuple, Tuple[float, List, Tuple[str, ...]]] = {}
        self._sizes: Dict[Tuple, Tuple[float, ...]] = {}

    @property
    def substrate(self) -> Substrate:
        """The shared substrate instance (warm across runs)."""
        return self._substrate

    # -- job profiling -------------------------------------------------------

    def _collective_schedule(self, algorithm: str, num_nodes: int,
                             message_bytes: float) -> Schedule:
        """The ``algorithm`` all-reduce at ``num_nodes`` ranks.

        ``"wrht"`` plans against the shared optical system projected to
        the job's width (payload-dependent group size), so it is keyed
        by message size as well; the system-free generators are not.
        On an OCS fabric the same arm runs the topology co-planner's
        lookahead policy instead (whole-schedule program synthesis).
        """
        if algorithm == "wrht":
            key = ("wrht", num_nodes, float(message_bytes))
            sched = self._schedules.get(key)
            if sched is not None:
                return sched
            if isinstance(self.system, ReconfigurableOCSSystem):
                from ..core.topoplan import plan_topology
                plan = plan_topology(
                    self.system.with_(num_nodes=num_nodes),
                    Workload(data_bytes=message_bytes, name="serving"),
                    policies=("lookahead",))
                sched = self._schedules[key] = plan.schedule
                return sched
            if not isinstance(self.system, OpticalRingSystem):
                raise ConfigurationError(
                    "collective 'wrht' needs an optical-ring shared "
                    "substrate")
            from ..core.planner import plan_wrht
            plan = plan_wrht(self.system.with_(num_nodes=num_nodes),
                             Workload(data_bytes=message_bytes,
                                      name="serving"))
            sched = self._schedules[key] = plan.schedule
            return sched
        key = (algorithm, num_nodes)
        sched = self._schedules.get(key)
        if sched is None:
            sched = self._schedules[key] = generate_collective(
                algorithm, num_nodes)
        return sched

    def _placed_schedule(self, algorithm: str, nodes: Tuple[int, ...],
                         message_bytes: float) -> Schedule:
        """The ``algorithm`` all-reduce re-based onto ``nodes``.

        Only ``"wrht"`` depends on the payload (see
        :meth:`_collective_schedule`), so only it is keyed by message
        size; every other generator is placed once per node set.  A
        placed key holds the node tuple where an unplaced one holds
        its length, so both share ``_schedules`` without colliding.
        """
        key = (algorithm, nodes)
        if algorithm == "wrht":
            key += (float(message_bytes),)
        sched = self._schedules.get(key)
        if sched is None:
            base = self._collective_schedule(algorithm, len(nodes),
                                             message_bytes)
            sched = self._schedules[key] = place_schedule(
                base, nodes, self.capacity)
        return sched

    def _profile(self, job: JobSpec, nodes: Tuple[int, ...]
                 ) -> Tuple[float, List, Tuple[str, ...]]:
        """(solo step time, representative flows, per-message algos).

        The step time is the sum of every message's full schedule
        execution on the shared substrate at the job's placement; the
        representative flows are the heaviest step of the largest
        message's schedule — the bandwidth-dominant pattern the
        contention batch shares with other jobs.
        """
        sizing = job.sizing_key
        sizes = self._sizes.get(sizing)
        if sizes is None:
            sizes = self._sizes[sizing] = job.resolve_message_sizes()
        key = (nodes, sizes)
        cached = self._profiles.get(key)
        if cached is not None:
            return cached
        algos = tuple(self.collectives.select(m) for m in sizes)
        batch = []
        for m, algo in zip(sizes, algos):
            sched = self._placed_schedule(algo, nodes, m)
            batch.append((sched, Workload(data_bytes=m, name="serving"),
                          self._options))
        reports = self._substrate.execute_many(batch)
        step_time = sum(r.total_time for r in reports)
        if step_time <= 0.0:
            raise ConfigurationError(
                f"job {job.job_id}: non-positive step time on "
                f"{self._substrate.name}")
        big = int(max(range(len(sizes)), key=lambda i: sizes[i]))
        big_sched, big_wl, _ = batch[big]
        flows = self._heaviest_step_flows(big_sched, big_wl)
        profile = (step_time, flows, algos)
        self._profiles[key] = profile
        return profile

    @staticmethod
    def _heaviest_step_flows(schedule: Schedule, workload: Workload
                             ) -> List[Tuple[int, int, float]]:
        best: List[Tuple[int, int, float]] = []
        best_bytes = -1.0
        for step in schedule.steps:
            flows = [(t.src, t.dst,
                      transfer_bytes(t, workload.data_bytes,
                                     schedule.num_chunks))
                     for t in step]
            total = sum(f[2] for f in flows)
            if total > best_bytes:
                best, best_bytes = flows, total
        return best

    # -- the event loop ------------------------------------------------------

    def run(self, jobs: Sequence[JobSpec],
            faults: Optional[FaultPlan] = None,
            retry: Optional[RetryPolicy] = None) -> ServingReport:
        """Serve ``jobs`` to completion and report fleet metrics.

        ``faults`` injects a :class:`~repro.faults.FaultPlan` into the
        event loop: when a node becomes impaired (node failure, or
        either endpoint of a failed link), every running job whose
        placement touches it is *killed* — its nodes are released, the
        node is withdrawn from the free pool, and the job is requeued
        after ``retry``'s exponential backoff, restarting from step
        zero.  Repairs return nodes to service and immediately backfill
        from the queue.  Jobs are never dropped silently: each either
        completes (its record notes the restart count) or lands in
        :attr:`ServingReport.failed_jobs` after ``retry.max_retries``
        kills.  ``faults=None`` (or the empty plan) is the documented
        bit-for-bit no-op — the fault-free event loop is unchanged.
        """
        pending = sorted(jobs, key=lambda j: (j.arrival_time, j.job_id))
        ids = [j.job_id for j in pending]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("job ids must be unique")
        sched = OnlineScheduler(capacity=self.capacity, policy=self.policy,
                                placement_mode=self.placement)
        running: Dict[int, _Running] = {}
        records: List[JobRecord] = []
        report = ServingReport(capacity=self.capacity,
                               substrate=self._substrate.name,
                               policy=self.policy,
                               collectives=self.collectives.label)
        faulty = faults is not None and bool(faults.events)
        timeline = faults.timeline() if faulty else None
        retry = retry if retry is not None else RetryPolicy()
        down: frozenset = frozenset()
        #: (retry_at, job_id, job) — job_id breaks ties deterministically.
        retry_heap: List[Tuple[float, int, JobSpec]] = []
        attempts: Dict[int, int] = {}
        now = 0.0
        idx = 0
        mix: Dict[str, int] = {}

        def start(placement: Placement) -> None:
            job = placement.job
            step_time, flows, algos = self._profile(job, placement.nodes)
            for algo in algos:
                mix[algo] = mix.get(algo, 0) + 1
            running[job.job_id] = _Running(
                placement=placement, step_time=step_time, flows=flows,
                algorithms=algos, remaining=float(job.num_steps))

        def kill(jid: int) -> None:
            r = running.pop(jid)
            sched.release(r.placement)
            report.preemptions += 1
            job = r.placement.job
            n = attempts.get(jid, 0) + 1
            attempts[jid] = n
            if n > retry.max_retries:
                report.failed_jobs.append(job)
            else:
                heapq.heappush(retry_heap,
                               (now + retry.delay(n), jid, job))

        while (running or idx < len(pending) or retry_heap
               or sched.queue_depth):
            next_arrival = (pending[idx].arrival_time
                            if idx < len(pending) else math.inf)
            next_completion = math.inf
            for r in running.values():
                next_completion = min(next_completion, r.completion_at(now))
            next_retry = retry_heap[0][0] if retry_heap else math.inf
            next_fault = timeline.next_change() if faulty else math.inf
            t = min(next_arrival, next_completion, next_retry, next_fault)
            if math.isinf(t):
                raise ScheduleError(
                    f"serving stalled at t={now}: {sched.queue_depth} "
                    f"job(s) queued, {sched.failed_nodes} node(s) down, "
                    f"and no pending repair or retry can free capacity")
            # Advance fluid progress to the event time.
            dt = t - now
            if dt > 0:
                for r in running.values():
                    r.remaining = max(
                        0.0, r.remaining - dt / r.rate_denominator)
                if down:
                    report.node_downtime += len(down) * dt
            now = t
            changed = False
            # Completions first (their nodes are free for this instant's
            # arrivals — and a job done by t survives a fault at t), in
            # job-id order for determinism.  A job whose remaining time
            # is below half an ulp of ``now`` can never advance (its
            # completion event is ``now`` itself, so ``dt`` stays 0); it
            # is done too, or the loop would spin at ``now`` forever.
            # Only on a ``dt == 0`` pass: after an advance, a same-instant
            # admission can still raise its slowdown and let it finish
            # an ulp later.
            done = sorted(jid for jid, r in running.items()
                          if r.remaining <= _STEP_EPS
                          or (dt == 0 and r.completion_at(now) <= now))
            for jid in done:
                r = running.pop(jid)
                sched.release(r.placement)
                records.append(JobRecord(
                    job=r.placement.job, nodes=r.placement.nodes,
                    start_time=r.placement.start_time, completion_time=now,
                    step_time=r.step_time, algorithms=r.algorithms,
                    attempts=attempts.get(jid, 0)))
                changed = True
            # Fault-state changes at this instant: kill placements
            # touching newly impaired nodes (release before fail_nodes,
            # so the scheduler never sees an allocated node fail), then
            # withdraw/restore capacity.
            if faulty:
                state = timeline.advance(now)
                impaired = frozenset(state.impaired_hosts(self.capacity))
                newly_down = impaired - down
                newly_up = down - impaired
                if newly_down:
                    for jid in sorted(running):
                        r = running[jid]
                        if newly_down.intersection(r.placement.nodes):
                            kill(jid)
                    sched.fail_nodes(newly_down)
                    changed = True
                if newly_up:
                    sched.restore_nodes(newly_up)
                    changed = True
                down = impaired
            # Retries due at this instant (before fresh arrivals: a
            # killed job keeps its original policy position).
            while retry_heap and retry_heap[0][0] <= now:
                _, _, job = heapq.heappop(retry_heap)
                report.retries += 1
                placement = sched.submit(job, now)
                if placement is not None:
                    start(placement)
                    changed = True
            # Arrivals at this instant.
            while idx < len(pending) and pending[idx].arrival_time <= now:
                placement = sched.submit(pending[idx], now)
                if placement is not None:
                    start(placement)
                    changed = True
                idx += 1
            # Backfill from the queue in policy order.
            for placement in sched.admit_from_queue(now):
                start(placement)
                changed = True
            if changed and running:
                slow = self._contention.slowdowns(
                    {jid: r.flows for jid, r in running.items()})
                for jid, r in running.items():
                    r.slowdown = slow[jid]
            if faulty:
                sched.check_conservation()
            report.queue_samples.append((now, sched.queue_depth))

        records.sort(key=lambda r: (r.completion_time, r.job.job_id))
        report.records = records
        report.algorithm_mix = dict(sorted(mix.items()))
        report.cache_stats = cache_stats([self._substrate])
        if faulty:
            report.fault_events_applied = timeline.applied
        return report
