"""Ablation sweeps (the ``sweep`` commands of README.md's CLI table).

* :func:`wavelength_sweep` — EXT-A1: Wrht (and O-Ring for reference)
  as the per-direction wavelength budget grows;
* :func:`crossover_sweep` — EXT-A5: payload sweep locating where Wrht
  starts beating each baseline;
* :func:`striping_sweep` — EXT-A3: isolates the WDM striping advantage
  by costing the same Wrht schedule with striping on and off, plus the
  striped-ring thought experiment;
* :func:`substrate_sweep` — EXT-S1: one pinned ring all-reduce executed
  on every registered substrate (dispatched through the registry, so
  third-party substrates show up automatically);
* :func:`hier_group_sweep` — EXT-H1: the multi-rack fabric's rack-size
  knob, against the flat O-Ring and Wrht references;
* :func:`bandwidth_sweep` — EXT-A9: the electrical substrate's
  link-rate knob, executed on *one* substrate so all cells share the
  shape-keyed compiled-structure cache (each cell only rebinds
  capacities);
* :func:`serving_load_sweep` — EXT-V1: the serving layer's offered
  load, streaming the same seeded Poisson mix through one warm shared
  substrate at increasing arrival rates and reading off throughput,
  JCT percentiles, and queue depth;
* :func:`ocs_delay_sweep` — EXT-O1: the OCS fabric's reconfiguration
  delay, executing the same schedule under the myopic per-step policy
  and the lookahead program synthesiser to show where amortisation
  starts paying.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..config import (Workload, default_hierarchical, default_optical,
                      hier_group_candidates)
from ..core import cost_model
from ..core.comparison import compare_algorithms
from ..core.planner import plan_wrht
from ..core.substrates import available_substrates, pooled_substrate
from ..errors import ConfigurationError


@dataclass(frozen=True)
class WavelengthSweepRow:
    """One budget point of EXT-A1."""

    num_wavelengths: int
    wrht_time: float
    wrht_group_size: int
    wrht_steps: int
    oring_time: float


def wavelength_sweep(num_nodes: int, workload: Workload,
                     budgets: Sequence[int] = (4, 8, 16, 32, 64, 128),
                     ) -> List[WavelengthSweepRow]:
    """Wrht vs wavelength budget (O-Ring is budget-insensitive)."""
    rows = []
    for w in budgets:
        system = default_optical(num_nodes, num_wavelengths=w)
        plan = plan_wrht(system, workload)
        rows.append(WavelengthSweepRow(
            num_wavelengths=w,
            wrht_time=plan.predicted_time,
            wrht_group_size=plan.group_size,
            wrht_steps=plan.num_steps,
            oring_time=cost_model.oring_time(system, workload)))
    return rows


@dataclass(frozen=True)
class CrossoverRow:
    """One payload point of EXT-A5."""

    data_bytes: float
    times: Dict[str, float]

    def winner(self) -> str:
        """Fastest algorithm at this payload.

        Ties break alphabetically (not by dict insertion order), so the
        answer is stable across callers that assemble ``times`` in
        different orders.
        """
        return min(sorted(self.times), key=self.times.get)


def crossover_sweep(num_nodes: int,
                    payload_bytes: Sequence[float],
                    algorithms: Sequence[str] = ("e-ring", "rd", "o-ring",
                                                 "wrht"),
                    ) -> List[CrossoverRow]:
    """Sweep the payload to locate win regions (latency vs bandwidth)."""
    rows = []
    for nbytes in payload_bytes:
        wl = Workload(data_bytes=float(nbytes), name="sweep")
        comp = compare_algorithms(num_nodes, wl, algorithms=algorithms)
        rows.append(CrossoverRow(
            data_bytes=float(nbytes),
            times={a: comp.time(a) for a in algorithms}))
    return rows


@dataclass(frozen=True)
class PipeliningRow:
    """EXT-A8: one chunk-count point of the pipelined-Wrht sweep."""

    num_chunks: int
    steps: int
    time: float
    min_striping: int


def pipelining_sweep(num_nodes: int, workload: Workload,
                     chunk_counts: Sequence[int] = (1, 2, 4, 8, 16, 32),
                     group_size: int = 3,
                     num_wavelengths: int = 64) -> List[PipeliningRow]:
    """Pipelined Wrht vs chunk count (EXT-A8).

    Pipelining shrinks per-step payloads (steps = L + C − 1 of S/C each)
    but stacks concurrent levels on the ring, shrinking the striping
    factor — this sweep exposes the optimum.
    """
    from ..collectives.wrht import WrhtParameters
    from ..collectives.wrht_pipelined import generate_wrht_pipelined
    from ..core.cost_model import wrht_time_from_schedule

    system = default_optical(num_nodes, num_wavelengths=num_wavelengths)
    params = WrhtParameters(num_nodes=num_nodes, group_size=group_size,
                            num_wavelengths=num_wavelengths,
                            alltoall_threshold=group_size)
    rows = []
    for c in chunk_counts:
        sched, _ = generate_wrht_pipelined(params, c)
        detail = wrht_time_from_schedule(sched, system, workload)
        rows.append(PipeliningRow(
            num_chunks=c, steps=sched.num_steps,
            time=detail.total_time,
            min_striping=min(detail.striping)))
    return rows


@dataclass(frozen=True)
class StripingRow:
    """EXT-A3: the same configuration with/without WDM striping."""

    label: str
    time: float
    steps: int
    detail: str = ""


def striping_sweep(num_nodes: int, workload: Workload,
                   num_wavelengths: int = 64) -> List[StripingRow]:
    """Cost Wrht and Ring with striping enabled/disabled.

    Shows (a) striping is where Wrht's WDM win comes from, and (b) the
    honest extension result that a hypothetical striped ring all-reduce
    is latency-bound rather than bandwidth-bound at scale.
    """
    base = default_optical(num_nodes, num_wavelengths=num_wavelengths)
    nostripe = base.with_(allow_striping=False)
    rows: List[StripingRow] = []

    plan_s = plan_wrht(base, workload)
    rows.append(StripingRow("wrht+striping", plan_s.predicted_time,
                            plan_s.num_steps,
                            f"m={plan_s.group_size}, {plan_s.variant}"))
    plan_n = plan_wrht(nostripe, workload)
    rows.append(StripingRow("wrht-no-striping", plan_n.predicted_time,
                            plan_n.num_steps,
                            f"m={plan_n.group_size}, {plan_n.variant}"))
    rows.append(StripingRow(
        "o-ring (1 wavelength)",
        cost_model.oring_time(base, workload),
        2 * (num_nodes - 1)))
    rows.append(StripingRow(
        "ring+striping (thought experiment)",
        cost_model.ring_allreduce_time_optical(
            base, workload, striping=num_wavelengths),
        2 * (num_nodes - 1)))
    return rows


@dataclass(frozen=True)
class HierGroupRow:
    """EXT-H1: one rack-size point of the hierarchical-fabric sweep."""

    group_size: int
    num_groups: int
    steps: int
    hier_time: float
    oring_time: float
    wrht_time: float

    @property
    def speedup_vs_oring(self) -> float:
        """``T_O-Ring / T_hier`` at this rack size."""
        return self.oring_time / self.hier_time


def hier_group_sweep(num_nodes: int, workload: Workload,
                     group_sizes: Optional[Sequence[int]] = None,
                     fidelity: str = "analytic",
                     ) -> List[HierGroupRow]:
    """Hierarchical-fabric time vs rack size (EXT-H1).

    Sweeps ``group_size`` (default: every divisor of ``num_nodes``)
    over the multi-rack fabric — the two degenerate endpoints are the
    purely electrical rack (``g == N``) and the flat optical ring
    (``g == 1``) — and reports the flat O-Ring and Wrht times on a
    same-scale single optical ring for reference.  ``fidelity`` picks
    the closed-form :func:`~repro.core.cost_model.hier_rack_time`
    (``"analytic"``, pinned to simulation) or full substrate execution
    (``"simulate"``).
    """
    from ..collectives.hierarchical_ring import (
        generate_hierarchical_ring, hierarchical_ring_step_count)
    from ..core.substrates import pooled_substrate
    from ..errors import ConfigurationError as _CfgErr

    if fidelity not in ("analytic", "simulate"):
        raise _CfgErr(
            f"fidelity must be 'analytic' or 'simulate', got {fidelity!r}")
    sizes = (tuple(group_sizes) if group_sizes is not None
             else hier_group_candidates(num_nodes))
    flat = default_optical(num_nodes)
    oring = cost_model.oring_time(flat, workload)
    wrht = plan_wrht(flat, workload).predicted_time
    rows: List[HierGroupRow] = []
    for g in sizes:
        system = default_hierarchical(num_nodes, group_size=g)
        if fidelity == "simulate":
            t = pooled_substrate("hier-rack", system).execute(
                generate_hierarchical_ring(num_nodes, g),
                workload).total_time
        else:
            t = cost_model.hier_rack_time(system, workload)
        rows.append(HierGroupRow(
            group_size=g, num_groups=system.num_groups,
            steps=hierarchical_ring_step_count(num_nodes, g),
            hier_time=t, oring_time=oring, wrht_time=wrht))
    return rows


@dataclass(frozen=True)
class BandwidthRow:
    """EXT-A9: one link-rate cell of the electrical bandwidth sweep."""

    link_rate: float
    time: float
    steps: int
    compile_hits: int
    compile_misses: int


def bandwidth_sweep(num_nodes: int, workload: Workload,
                    link_rates: Optional[Sequence[float]] = None,
                    topology: str = "switch") -> List[BandwidthRow]:
    """Electrical all-reduce time vs link rate (EXT-A9).

    Every cell runs the same schedule (recursive doubling where
    ``num_nodes`` is a power of two — its log2(N) *distinct* step
    patterns make compilation reuse meaningful — else ring all-reduce)
    on a single :class:`~repro.core.substrates.ElectricalSubstrate`
    instance, overriding the system per call.  Cells differ only in
    capacities, so their topologies share a shape signature and the
    whole sweep compiles each pattern's flow-batch structure exactly
    once; later cells rebind capacities onto the cached structures.
    The per-row cumulative compile counters make the reuse visible:
    misses stop growing after the first cell.
    """
    from ..collectives.recursive_doubling import generate_recursive_doubling
    from ..collectives.ring_allreduce import generate_ring_allreduce
    from ..config import default_electrical

    if topology not in ("switch", "ring"):
        raise ConfigurationError(
            f"topology must be 'switch' or 'ring', got {topology!r}")
    if link_rates is None:
        from ..config import units

        link_rates = tuple(g * units.GBPS for g in (25, 50, 100, 200, 400))
    if num_nodes >= 2 and num_nodes & (num_nodes - 1) == 0:
        sched = generate_recursive_doubling(num_nodes)
    else:
        sched = generate_ring_allreduce(num_nodes)
    # Pooled (like substrate_sweep) so repeats reuse warm compiles and
    # cache_stats() sees this sweep; one instance across all cells is
    # what makes the cross-cell structure sharing happen at all.
    sub = pooled_substrate(f"electrical-{topology}")
    base = default_electrical(num_nodes).with_(topology=topology)
    rows: List[BandwidthRow] = []
    for rate in link_rates:
        rep = sub.execute(sched, workload,
                          system=base.with_(link_rate=float(rate)))
        cstats = sub.compile_cache_info()
        rows.append(BandwidthRow(
            link_rate=float(rate), time=rep.total_time,
            steps=rep.num_steps,
            compile_hits=cstats.hits, compile_misses=cstats.misses))
    return rows


@dataclass(frozen=True)
class SubstrateRow:
    """EXT-S1: one substrate's execution of the pinned schedule."""

    substrate: str
    time: float
    steps: int
    kind: str
    note: str = ""


def substrate_sweep(num_nodes: int, workload: Workload,
                    substrates: Optional[Sequence[str]] = None,
                    ) -> List[SubstrateRow]:
    """Execute one ring all-reduce on every registered substrate.

    The apples-to-apples fabric comparison the registry enables: the
    *same* schedule, each substrate's own default system at
    ``num_nodes``.  Substrates that cannot host the schedule (e.g. the
    torus with a prime node count) are reported with an empty time and
    the configuration error as ``note`` rather than aborting the sweep.
    """
    from ..collectives.ring_allreduce import generate_ring_allreduce

    names = (tuple(substrates) if substrates is not None
             else available_substrates())
    sched = generate_ring_allreduce(num_nodes)
    rows: List[SubstrateRow] = []
    for name in names:
        # Pooled so repeated sweeps reuse warm instances and the
        # registry's cache_stats() aggregation sees this sweep's work.
        sub = pooled_substrate(name)
        info = sub.describe()
        try:
            rep = sub.execute(sched, workload)
        except ConfigurationError as exc:
            rows.append(SubstrateRow(substrate=name, time=float("nan"),
                                     steps=0, kind=info.kind,
                                     note=str(exc)))
            continue
        rows.append(SubstrateRow(substrate=name, time=rep.total_time,
                                 steps=rep.num_steps, kind=info.kind))
    return rows


@dataclass(frozen=True)
class ServingLoadRow:
    """EXT-V1: one offered-load point of the serving sweep."""

    arrival_rate: float
    jobs: int
    steps: int
    makespan: float
    throughput_jobs: float
    throughput_steps: float
    jct_mean: float
    jct_p50: float
    jct_p99: float
    max_queue_depth: int
    mean_queue_depth: float
    algorithm_mix: Dict[str, int] = field(default_factory=dict)


def serving_load_sweep(capacity: int = 32,
                       num_jobs: int = 50,
                       arrival_rates: Sequence[float] = (5.0, 20.0, 80.0),
                       substrate_name: str = "electrical-ring",
                       policy: str = "fifo",
                       placement: str = "contiguous",
                       seed: int = 0,
                       ) -> List[ServingLoadRow]:
    """Serving metrics vs offered load (EXT-V1).

    Each cell streams the *same* ``num_jobs``-job seeded mix (only the
    inter-arrival scale changes with ``arrival_rate``) through one
    engine per cell, all sharing the pooled warm substrate — so the
    sweep doubles as a demonstration that warm schedule/profile caches
    make repeated traffic cheap.  As load grows, throughput saturates
    at fabric capacity and queueing pushes the JCT tail (p99) out.
    """
    from ..serving import ServingEngine, poisson_traffic

    rows: List[ServingLoadRow] = []
    for rate in arrival_rates:
        jobs = poisson_traffic(num_jobs=num_jobs, arrival_rate=float(rate),
                               seed=seed,
                               node_choices=(4, 8, min(16, capacity)))
        engine = ServingEngine(substrate_name=substrate_name,
                               capacity=capacity, policy=policy,
                               placement=placement)
        report = engine.run(jobs)
        rows.append(ServingLoadRow(
            arrival_rate=float(rate),
            jobs=report.num_jobs,
            steps=report.total_steps,
            makespan=report.makespan,
            throughput_jobs=report.throughput_jobs,
            throughput_steps=report.throughput_steps,
            jct_mean=report.jct(),
            jct_p50=report.jct(50),
            jct_p99=report.jct(99),
            max_queue_depth=report.max_queue_depth,
            mean_queue_depth=report.mean_queue_depth,
            algorithm_mix=dict(report.algorithm_mix)))
    return rows


@dataclass(frozen=True)
class FaultSweepRow:
    """EXT-F1: one fault-rate point of the degraded-serving sweep."""

    fault_rate: float
    jobs: int
    failed_jobs: int
    preemptions: int
    retries: int
    makespan: float
    throughput_jobs: float
    jct_mean: float
    jct_p99: float
    availability: float

    @property
    def goodput_fraction(self) -> float:
        """Completed jobs over submitted jobs."""
        total = self.jobs + self.failed_jobs
        return self.jobs / total if total else 1.0


def fault_sweep(capacity: int = 32,
                num_jobs: int = 50,
                arrival_rate: float = 20.0,
                fault_rates: Sequence[float] = (0.0, 2.0, 8.0, 32.0),
                mean_repair: float = 0.05,
                substrate_name: str = "electrical-ring",
                policy: str = "fifo",
                placement: str = "contiguous",
                seed: int = 0,
                fault_seed: int = 0,
                max_retries: int = 3,
                ) -> List[FaultSweepRow]:
    """Serving metrics vs fault rate (EXT-F1).

    Every cell streams the *same* seeded job mix; only the fault plan
    changes (rate split evenly between link cuts and node crashes over
    a horizon sized to the fault-free makespan).  The ``0.0`` row is
    the fault-free reference — by the zero-event passthrough guarantee
    it is bit-for-bit the plain ``run(jobs)`` result — and the
    availability/JCT/goodput columns show graceful degradation as the
    fabric gets sicker, not a cliff.
    """
    from ..faults import FaultPlan
    from ..serving import RetryPolicy, ServingEngine, poisson_traffic

    jobs = poisson_traffic(num_jobs=num_jobs, arrival_rate=arrival_rate,
                           seed=seed,
                           node_choices=(4, 8, min(16, capacity)))
    # Horizon: the fault-free makespan, so every cell's plan spans the
    # whole stream (measured once, on its own engine).
    ref = ServingEngine(substrate_name=substrate_name, capacity=capacity,
                        policy=policy, placement=placement).run(jobs)
    horizon = max(ref.makespan, 1e-6)
    rows: List[FaultSweepRow] = []
    for rate in fault_rates:
        plan = (FaultPlan.none() if rate <= 0 else FaultPlan.poisson(
            duration=horizon, num_nodes=capacity, seed=fault_seed,
            link_rate=float(rate) / 2, node_rate=float(rate) / 2,
            mean_repair=mean_repair))
        engine = ServingEngine(substrate_name=substrate_name,
                               capacity=capacity, policy=policy,
                               placement=placement)
        report = engine.run(jobs, faults=plan,
                            retry=RetryPolicy(max_retries=max_retries))
        rows.append(FaultSweepRow(
            fault_rate=float(rate),
            jobs=report.num_jobs,
            failed_jobs=len(report.failed_jobs),
            preemptions=report.preemptions,
            retries=report.retries,
            makespan=report.makespan,
            throughput_jobs=report.throughput_jobs,
            jct_mean=report.jct(),
            jct_p99=report.jct(99),
            availability=report.availability))
    return rows


@dataclass(frozen=True)
class OcsDelayRow:
    """EXT-O1: one reconfiguration-delay point, greedy vs lookahead."""

    delay_s: float
    greedy_time: float
    lookahead_time: float
    reconfigs_saved: int

    @property
    def speedup(self) -> float:
        if self.lookahead_time <= 0:
            return 1.0
        return self.greedy_time / self.lookahead_time


def ocs_delay_sweep(num_nodes: int, workload: Workload,
                    delays: Optional[Sequence[float]] = None,
                    ports_per_node: int = 4) -> List[OcsDelayRow]:
    """EXT-O1: the lookahead planner's payoff as tuning gets slower.

    One recursive-doubling schedule on the OCS fabric, executed twice
    per reconfiguration delay: the myopic per-step policy and the
    whole-schedule DP (``lookahead=True``).  The dominance guarantee
    pins ``lookahead_time <= greedy_time`` at every cell; the sweep
    shows *where* the gap opens — at ``delay=0`` reconfiguring is free
    and both policies re-match every step (ratio 1.0), while at large
    delays the DP installs port-feasible unions of consecutive
    matchings and serves several steps per paid delay.

    ``ports_per_node`` defaults to 4 (not the fabric's stock 2) so
    unions of consecutive matchings are actually port-feasible; fresh
    substrate instances per cell keep the per-run
    ``lookahead_reconfigs_saved`` counter exact.
    """
    from ..collectives.recursive_doubling import generate_recursive_doubling
    from ..config import default_ocs
    from ..core.substrates.reconfigurable import OCSReconfigurableSubstrate

    if delays is None:
        delays = (0.0, 1e-5, 1e-4, 1e-3, 1e-2)
    sched = generate_recursive_doubling(num_nodes)
    rows: List[OcsDelayRow] = []
    for delay in delays:
        system = default_ocs(num_nodes).with_(
            reconfiguration_delay=float(delay),
            ports_per_node=ports_per_node)
        greedy = OCSReconfigurableSubstrate(system).execute(
            sched, workload)
        sub = OCSReconfigurableSubstrate(system, lookahead=True)
        look = sub.execute(sched, workload)
        saved = dict(sub.describe().parameters)[
            "lookahead_reconfigs_saved"]
        rows.append(OcsDelayRow(delay_s=float(delay),
                                greedy_time=greedy.total_time,
                                lookahead_time=look.total_time,
                                reconfigs_saved=int(saved)))
    return rows


@dataclass(frozen=True)
class StrategySweepRow:
    """EXT-T1: one parallelization strategy across fabric shapes."""

    strategy: str
    comm_bytes: float
    hier_times: Dict[int, Optional[float]]
    ocs_time: Optional[float]
    ocs_algorithm: str
    ocs_policy: str

    @property
    def best_hier_time(self) -> Optional[float]:
        """Fastest feasible rack-size cell (None if none is)."""
        feasible = [t for t in self.hier_times.values() if t is not None]
        return min(feasible) if feasible else None


def strategy_sweep(num_nodes: int, model: str = "alexnet",
                   strategies: Optional[Sequence] = None,
                   rack_sizes: Optional[Sequence[int]] = None,
                   fidelity: str = "hybrid", top_k: int = 2,
                   **lower_kwargs) -> List[StrategySweepRow]:
    """EXT-T1: the strategy × rack-size co-planning grid.

    Each row is one parallelization strategy; its ``hier_times`` map
    rack size → best-leader closed-form time on the hierarchical
    fabric (``None`` where the strategy's groups cannot be rack-aligned
    — the infeasibility the co-planner routes around), and
    ``ocs_time`` is the best simulated (algorithm, policy) pair on the
    reconfigurable OCS.  The per-strategy spread is the whole point of
    the sweep: strategies whose groups match the fabric hierarchy win
    racks, strided strategies need the OCS to reshape around them.
    """
    from ..core.topoplan import strategy_plan_table
    from ..models.catalog import get_model
    from ..models.strategies import enumerate_strategies

    if strategies is None:
        strategies = enumerate_strategies(num_nodes)
    if rack_sizes is None:
        rack_sizes = hier_group_candidates(num_nodes)
    model_obj = get_model(model)
    rows: List[StrategySweepRow] = []
    for strat in strategies:
        comm = strat.lower(model_obj, **lower_kwargs).total_bytes
        plans = strategy_plan_table(
            num_nodes, model, strategies=[strat], rack_sizes=rack_sizes,
            fidelity=fidelity, top_k=top_k, **lower_kwargs)
        hier_times: Dict[int, Optional[float]] = {}
        for g in rack_sizes:
            cells = [p.predicted_time for p in plans
                     if p.fabric == "hier-rack" and p.group_size == g]
            hier_times[int(g)] = min(cells) if cells else None
        ocs = [p for p in plans if p.fabric == "ocs-reconfig"]
        if ocs:
            best = min(ocs, key=lambda p: (p.predicted_time, p.num_steps,
                                           p.policy, p.algorithm))
            rows.append(StrategySweepRow(
                strategy=strat.name, comm_bytes=comm,
                hier_times=hier_times, ocs_time=best.predicted_time,
                ocs_algorithm=best.algorithm, ocs_policy=best.policy))
        else:
            rows.append(StrategySweepRow(
                strategy=strat.name, comm_bytes=comm,
                hier_times=hier_times, ocs_time=None,
                ocs_algorithm="-", ocs_policy="-"))
    return rows
