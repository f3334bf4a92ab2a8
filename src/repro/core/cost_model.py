"""Closed-form communication-time models (α–β–WDM).

These reproduce, in closed form, exactly what the substrates compute
step by step — the test suite cross-validates them against full simulation.
They exist because the planner sweeps hundreds of candidate
configurations and the Fig. 2 grid sweeps four models × four scales,
where generating + simulating every 2(N−1)-step ring schedule would be
wasteful (the HPC guide's "find a better algorithm before optimizing
code" applies: the closed form *is* the better algorithm).

Conventions (matching the substrates):

* a step's duration = per-step overhead + slowest transfer, where a
  transfer of ``b`` bytes on ``k`` wavelengths (optical) or a ``B``-rate
  link (electrical) serializes in ``b/(kB)``;
* optical steps pay ``step_overhead`` always and ``tuning_time`` when
  channel selections change (ring all-reduce retunes once; hierarchical
  schedules retune every step);
* electrical steps pay ``step_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..caching import CacheStats, LruCache
from ..collectives import analysis as can
from ..collectives.registry import STEP_COUNTS
from ..collectives.schedule import Schedule
from ..collectives.wrht import (WrhtParameters, WrhtScheduleInfo,
                                generate_wrht, wrht_step_order,
                                wrht_structure, wrht_tree_levels)
from ..config import (ElectricalSystem, HierarchicalSystem,
                      OpticalRingSystem, OpticalTorusSystem,
                      ReconfigurableOCSSystem, Workload)
from ..errors import ConfigurationError, TopologyError
from ..topology.ring import RingTopology

if TYPE_CHECKING:
    from ..models.strategies import CollectivePhase, DemandProfile

# ---------------------------------------------------------------------------
# electrical baselines (the paper's E-Ring and RD, SimGrid-modelled)
# ---------------------------------------------------------------------------


def ering_time(system: ElectricalSystem, workload: Workload) -> float:
    """Ring all-reduce on the electrical network.

    ``2(N−1)`` steps, each moving ``S/N`` per link at full rate:
    ``T = 2(N−1) · (S/(N·B_e) + α_e)``.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    s = workload.data_bytes
    per_step = s / n / system.link_rate + system.step_latency
    return 2 * (n - 1) * per_step


def rd_time(system: ElectricalSystem, workload: Workload) -> float:
    """Recursive doubling on the electrical network.

    ``log2(n)`` full-vector exchange steps (+2 fold steps when N is not a
    power of two): ``T = steps · (S/B_e + α_e)``.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    pow2 = 1 << (n.bit_length() - 1)
    steps = pow2.bit_length() - 1
    if n != pow2:
        steps += 2
    s = workload.data_bytes
    return steps * (s / system.link_rate + system.step_latency)


def halving_doubling_time(system: ElectricalSystem,
                          workload: Workload) -> float:
    """Rabenseifner on the electrical network (extension baseline).

    ``2·log2(n)`` steps; step ``s`` of each stage moves ``S/2^{s+1}``.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    pow2 = 1 << (n.bit_length() - 1)
    log_n = pow2.bit_length() - 1
    s = workload.data_bytes
    total = 0.0
    for lvl in range(log_n):
        frac = s / (2 ** (lvl + 1))
        total += 2 * (frac / system.link_rate + system.step_latency)
    if n != pow2:
        total += 2 * (s / system.link_rate + system.step_latency)
    return total


# ---------------------------------------------------------------------------
# optical baselines
# ---------------------------------------------------------------------------


def ring_allreduce_time_optical(system: OpticalRingSystem,
                                workload: Workload,
                                striping: int = 1) -> float:
    """Ring all-reduce on the optical ring.

    Each of ``2(N−1)`` steps sends ``S/N`` one hop on ``striping``
    wavelengths; the neighbour circuit never changes, so tuning is paid
    once.  ``striping=1`` is the paper's O-Ring; larger values are the
    EXT-A3 ablation.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    if striping < 1 or striping > system.num_wavelengths:
        raise ConfigurationError(
            f"striping {striping} outside [1, {system.num_wavelengths}]")
    s = workload.data_bytes
    per_step = (s / n / (striping * system.wavelength_rate)
                + system.propagation_delay(1)
                + system.step_overhead)
    return system.tuning_time + 2 * (n - 1) * per_step


def oring_time(system: OpticalRingSystem, workload: Workload) -> float:
    """The paper's O-Ring: ring all-reduce, one wavelength per transfer."""
    return ring_allreduce_time_optical(system, workload, striping=1)


def otorus_ring_time(system: OpticalTorusSystem,
                     workload: Workload) -> float:
    """Ring all-reduce on the 2-D WDM torus, in closed form.

    With the row-major rank layout, neighbour transfers
    ``i -> (i+1) mod N`` under dimension-ordered routing are pairwise
    link-disjoint: in-row flows take their own ``x+`` link (1 hop), and
    each row-boundary flow takes the row's ``x+`` wraparound plus one
    ``y+`` hop (2 hops).  Every flow therefore runs at the full
    aggregate link rate and the step makespan is the serialization of
    ``S/N`` plus the 2-hop worst-case propagation:

    ``T = 2(N-1) · (S/(N·B_link) + 2·t_hop + t_tune + t_overhead)``

    which matches :class:`~repro.core.substrates.optical_torus.
    OpticalTorusSubstrate` exactly (the fluid model never congests this
    pattern) — pinned by the test suite, enabling ``"o-torus"`` to join
    the analytic figures.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    s = workload.data_bytes
    per_step = (s / n / system.link_rate
                + 2 * system.hop_propagation_delay
                + system.tuning_time + system.step_overhead)
    return 2 * (n - 1) * per_step


def hier_rack_time(system: HierarchicalSystem, workload: Workload) -> float:
    """Hierarchical ring all-reduce on the multi-rack fabric, closed form.

    The time of :func:`~repro.collectives.hierarchical_ring.
    generate_hierarchical_ring` (``N`` nodes, rack size ``g``, leader
    position ``ℓ`` from ``system.resolved_leader_index``) on the
    ``"hier-rack"`` substrate:

    * **local phases** — ``2·max(ℓ, g−1−ℓ)`` steps, each moving the
      full vector one hop inside every rack concurrently; rack stars
      are disjoint and non-blocking, so each step costs
      ``α_local + S/B_local``.  When the two arcs tie
      (``ℓ == g−1−ℓ``), the final reduce step and the first broadcast
      step each push two full vectors through the leader's star leg,
      adding ``2·S/B_local`` of shared-leg serialization;
    * **leader phase** — the classic chunked ring among the ``G`` rack
      leaders: ``2(G−1)`` steps of ``S/G`` bytes one hop around the
      WDM ring.  Neighbour arcs are link-disjoint (per-segment demand
      1), so with striping every transfer rides all ``w`` wavelengths:
      ``S/(G·w·B_λ)`` serialization plus one rack hop of propagation
      and the optical step overhead; the neighbour circuit never
      changes, so MRR tuning is paid once.

    Degenerate fabrics recover the flat models: ``G == 1`` is the
    electrical term only, ``g == 1`` equals
    :func:`ring_allreduce_time_optical` on the leader system with full
    striping.  Pinned against
    :class:`~repro.core.substrates.hier_rack.HierarchicalRackSubstrate`
    by the test suite, which lets ``"hier"`` join the analytic figures.
    """
    n = system.num_nodes
    if n <= 1:
        return 0.0
    g = system.group_size
    big_g = system.num_groups
    s = workload.data_bytes
    total = 0.0
    if g > 1:
        per_local = system.local_step_latency + s / system.local_link_rate
        ell = system.resolved_leader_index
        depth = max(ell, g - 1 - ell)
        total += 2 * depth * per_local
        if 0 < ell == g - 1 - ell:
            total += 2 * (s / system.local_link_rate)
    if big_g > 1:
        k = system.num_wavelengths if system.allow_striping else 1
        per_leader = (s / big_g / (k * system.wavelength_rate)
                      + system.rack_spacing
                      * system.propagation_delay_per_meter
                      + system.optical_step_overhead)
        total += system.tuning_time + 2 * (big_g - 1) * per_leader
    return total


# ---------------------------------------------------------------------------
# strategy demand profiles (the co-planner's analytic arms)
# ---------------------------------------------------------------------------


def _rack_of(rank: int, group_size: int) -> int:
    return rank // group_size


def phase_hier_time(system: HierarchicalSystem,
                    phase: CollectivePhase,
                    world: int) -> Optional[float]:
    """One phase's time on the hierarchical rack fabric, or ``None``.

    Three cases, all exact against the ``"hier-rack"`` substrate:

    * a single **full-width** group runs the two-level hierarchical
      ring — :func:`hier_rack_time` times ``count``;
    * **rack-contained** groups (every group's ranks inside one rack)
      run chunked rings on their racks' stars.  Star legs are per-host
      and concurrent groups are disjoint, so groups never contend and
      each of the ``2(m−1)`` steps costs ``α_local + S/(m·B_local)`` —
      the electrical ring closed form on local links;
    * anything else (groups straddling rack boundaries, e.g. strided
      data-parallel groups under a tensor-in-rack layout) has no
      closed form on this fabric — ``None``, and the planner treats
      the whole (strategy × rack size) cell as infeasible.
    """
    g = system.group_size
    if phase.is_full_width(world):
        if system.num_nodes != world:
            return None
        return phase.count * hier_rack_time(system, phase.workload())
    for grp in phase.groups:
        racks = {_rack_of(r, g) for r in grp}
        if len(racks) != 1:
            return None
    m = phase.group_size
    local = ElectricalSystem(num_nodes=m,
                             link_rate=system.local_link_rate,
                             step_latency=system.local_step_latency)
    return phase.count * ering_time(local, phase.workload())


def profile_hier_time(system: HierarchicalSystem,
                      profile: DemandProfile) -> Optional[float]:
    """A whole demand profile on the rack fabric: phases run back to
    back (they are dependency-ordered), so the step time is the sum of
    the per-phase times — or ``None`` if any phase is unsupported."""
    total = 0.0
    for phase in profile.phases:
        t = phase_hier_time(system, phase, profile.world)
        if t is None:
            return None
        total += t
    return total


#: The co-planner's candidate collectives: the families the OCS
#: serialization bound prices (:mod:`repro.core.topoplan` searches
#: exactly these; generators and step counts come from
#: :mod:`repro.collectives.registry`).
CANDIDATE_ALGORITHMS: Tuple[str, ...] = (
    "ring", "recursive-doubling", "halving-doubling")


def phase_ocs_bound(system: ReconfigurableOCSSystem,
                    phase: CollectivePhase, algorithm: str) -> float:
    """Serialization lower bound for one phase on the OCS fabric.

    Prices each step of ``algorithm`` at group width ``m`` as if the
    ideal circuits were already installed — per-step payload over one
    circuit plus the step overhead and circuit latency — and charges
    **zero** reconfiguration.  Concurrent groups are node-disjoint, so
    with one transmit port per flow they do not stretch the step.  This
    is deliberately optimistic (admissible): the hybrid planner uses it
    only to *rank* (strategy × algorithm) candidates before simulating
    the survivors, mirroring how ``plan_wrht`` prunes with its analytic
    model.
    """
    if algorithm not in CANDIDATE_ALGORITHMS:
        raise ConfigurationError(
            f"no OCS bound for algorithm {algorithm!r}; choose from "
            f"{CANDIDATE_ALGORITHMS}")
    m = phase.group_size
    s = phase.message_bytes
    per = system.step_overhead + system.circuit_latency
    if algorithm == "halving-doubling":
        pow2 = 1 << (m.bit_length() - 1)
        log_m = pow2.bit_length() - 1
        t = 0.0
        for lvl in range(log_m):
            frac = s / (2 ** (lvl + 1))
            t += 2 * (frac / system.circuit_rate + per)
        if m != pow2:
            t += 2 * (s / system.circuit_rate + per)
    else:
        # Ring steps move S/m, recursive-doubling steps the full vector.
        step_bytes = s / m if algorithm == "ring" else s
        t = STEP_COUNTS[algorithm](m) * (step_bytes / system.circuit_rate
                                         + per)
    return phase.count * t


def profile_ocs_bound(system: ReconfigurableOCSSystem,
                      profile: DemandProfile, algorithm: str) -> float:
    """Serialization lower bound of a whole profile (phases sum)."""
    return sum(phase_ocs_bound(system, ph, algorithm)
               for ph in profile.phases)


# ---------------------------------------------------------------------------
# Wrht
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WrhtCostDetail:
    """Per-step decomposition of the Wrht analytic model."""

    step_times: Tuple[float, ...]
    striping: Tuple[int, ...]
    demands: Tuple[int, ...]
    total_time: float


@dataclass(frozen=True)
class WrhtStepSummary:
    """What pricing reads of a schedule on a ring, and nothing else.

    Per step: the wavelength demand and one ``(chunks, longest hops)``
    pair per chunk count its transfers carry, in chunk order.  Only the
    longest arc of a chunk count can set the step time, since
    ``bytes/(k·rate) + hops·hop_delay`` never decreases as hops grow
    (``hop_delay ≥ 0`` is validated; IEEE rounding is monotone).  It
    depends on the schedule and the ring's size and directions only,
    never on rates, overheads or the payload, so one summary prices
    every (system, workload) that shares them.
    """

    num_chunks: int
    demands: Tuple[int, ...]
    loads: Tuple[Tuple[Tuple[int, int], ...], ...]


def _summarize(schedule: Schedule, ring: RingTopology) -> WrhtStepSummary:
    demands: List[int] = []
    loads: List[Tuple[Tuple[int, int], ...]] = []
    for step in schedule.steps:
        demands.append(can.step_wavelength_demand(ring, step))
        longest: Dict[int, int] = {}
        for t in step:
            hops = ring.distance(t.src, t.dst,
                                 can.transfer_direction(ring, t))
            if hops > longest.get(len(t.chunks), -1):
                longest[len(t.chunks)] = hops
        loads.append(tuple(sorted(longest.items())))
    return WrhtStepSummary(num_chunks=schedule.num_chunks,
                           demands=tuple(demands), loads=tuple(loads))


def _structure_summary(params: WrhtParameters,
                       bidirectional: bool) -> WrhtStepSummary:
    """``_summarize(generate_wrht(params)[0], ring)`` from the level
    structure alone; it raises :class:`TopologyError` where that does.

    A tree level's flows stay inside their groups' arcs, so its demand
    is :attr:`GroupLevel.max_side` and its longest arc
    :attr:`GroupLevel.max_hops`; the broadcast mirror repeats both.
    The all-to-all takes the shortest arc on a two-way ring, with the
    demand the level walk counted, and the clockwise arc on a one-way
    ring.
    """
    n = params.num_nodes
    if n < 2:
        raise TopologyError(f"a ring needs >=2 nodes, got {n}")
    info = wrht_structure(params)
    if info.levels and not bidirectional:
        # Each level's broadcast sends CCW to the members below a rep.
        raise TopologyError("ring is unidirectional; no CCW travel")
    levels = [(level.max_side, ((1, level.max_hops),))
              for level in info.levels]
    middle = None
    if info.used_alltoall:
        parts = info.alltoall_participants
        hops = {(b - a) % n for a in parts for b in parts if a != b}
        if bidirectional:
            hops = {min(h, n - h) for h in hops}
            demand = info.alltoall_demand
        else:
            # All flows run clockwise, and the arcs a->b and b->a cover
            # each link once between them: every link carries one flow
            # per unordered pair.
            demand = len(parts) * (len(parts) - 1) // 2
        middle = (demand, ((1, max(hops)),))
    steps = [middle if i is None else levels[i]
             for i, _ in wrht_step_order(info)]
    return WrhtStepSummary(num_chunks=1,
                           demands=tuple(d for d, _ in steps),
                           loads=tuple(loads for _, loads in steps))


def _price(summary: WrhtStepSummary, system: OpticalRingSystem,
           workload: Workload) -> WrhtCostDetail:
    """The one Wrht pricing path (see :func:`wrht_time_from_schedule`)."""
    step_times: List[float] = []
    stripings: List[int] = []
    chunk_bytes = workload.data_bytes / summary.num_chunks
    for demand, loads in zip(summary.demands, summary.loads):
        if demand > system.num_wavelengths:
            raise ConfigurationError(
                f"step needs {demand} wavelengths; system has "
                f"{system.num_wavelengths}")
        k = (max(1, system.num_wavelengths // demand)
             if system.allow_striping else 1)
        # slowest transfer: max of serialization+propagation over the
        # step's longest arc per chunk count
        slowest = 0.0
        for chunks, hops in loads:
            b = chunks * chunk_bytes
            dt = b / (k * system.wavelength_rate) \
                + system.propagation_delay(hops)
            slowest = max(slowest, dt)
        step_times.append(system.tuning_time + system.step_overhead
                          + slowest)
        stripings.append(k)
    return WrhtCostDetail(step_times=tuple(step_times),
                          striping=tuple(stripings),
                          demands=summary.demands,
                          total_time=sum(step_times))


def wrht_time_from_schedule(schedule: Schedule,
                            system: OpticalRingSystem,
                            workload: Workload) -> WrhtCostDetail:
    """Analytic time of a generated Wrht schedule (no RWA, exact demand).

    Mirrors
    :class:`~repro.core.substrates.optical_ring.OpticalRingSubstrate`
    with ``striping='auto'``, charging tuning on every step
    (hierarchical steps always retune; the substrate agrees except on
    degenerate repeated steps).
    """
    ring = RingTopology(system.num_nodes, capacity=1.0,
                        bidirectional=system.bidirectional)
    return _price(_summarize(schedule, ring), system, workload)


#: Step summaries of Wrht schedules, process-wide, keyed by
#: ``(WrhtParameters, bidirectional)`` — everything a summary depends
#: on.  A miss derives its summary from the level structure
#: (:func:`_structure_summary`) and builds no schedule; a Fig. 2 run
#: holds 276 summaries.
_WRHT_SUMMARIES = LruCache(1024)


def wrht_candidate_costs(system: OpticalRingSystem, workload: Workload,
                         candidates: Iterable[WrhtParameters],
                         ) -> List[WrhtCostDetail]:
    """Analytic cost of the Wrht schedule of each of ``candidates``.

    Each result equals ``wrht_time_from_schedule(generate_wrht(p)[0],
    system, workload)`` field for field, but no schedule is built: the
    step summary of a ``(params, bidirectional)`` pair is derived from
    its level structure once per process, and later calls, for any
    rates or payload, only re-price the memoized summary.  This is how
    the planner ranks its sweep; it materializes only the winner.
    """
    costs = []
    for params in candidates:
        if params.num_nodes != system.num_nodes:
            raise ConfigurationError(
                f"candidate is for {params.num_nodes} nodes; system has "
                f"{system.num_nodes}")
        key = (params, system.bidirectional)
        summary = _WRHT_SUMMARIES.get(key)
        if summary is None:
            summary = _structure_summary(params, system.bidirectional)
            _WRHT_SUMMARIES.put(key, summary)
        costs.append(_price(summary, system, workload))
    return costs


def wrht_summary_stats() -> CacheStats:
    """Counters of the process-wide Wrht step-summary memo."""
    return _WRHT_SUMMARIES.stats()


def clear_wrht_summaries() -> None:
    """Empty the Wrht step-summary memo (cold-start timing, tests)."""
    _WRHT_SUMMARIES.clear()


def wrht_time(system: OpticalRingSystem, workload: Workload,
              params: WrhtParameters,
              ) -> Tuple[float, Schedule, WrhtScheduleInfo]:
    """Generate the Wrht schedule for ``params`` and cost it analytically.

    Returns ``(total_time, schedule, info)``.
    """
    schedule, info = generate_wrht(params)
    detail = wrht_time_from_schedule(schedule, system, workload)
    return detail.total_time, schedule, info


# ---------------------------------------------------------------------------
# paper closed forms (§2) — used for sanity cross-checks, not planning
# ---------------------------------------------------------------------------


def wrht_paper_step_bound(num_nodes: int, group_size: int) -> int:
    """``2⌈log_m N⌉`` — the paper's step upper bound without shortcut."""
    return 2 * wrht_tree_levels(num_nodes, group_size)


def wrht_paper_time_no_striping(system: OpticalRingSystem,
                                workload: Workload, num_steps: int,
                                ) -> float:
    """The simplest §2-style estimate: every step ships a full vector on
    one wavelength — ``steps · (S/B + overheads)``."""
    s = workload.data_bytes
    per_step = (s / system.wavelength_rate + system.tuning_time
                + system.step_overhead)
    return num_steps * per_step
