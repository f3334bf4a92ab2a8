"""The multi-rack hierarchical fabric substrate (``"hier-rack"``).

The first substrate with *two levels of contention physics*: racks of
electrically-switched hosts stitched together by a WDM optical ring.
Intra-rack transfers are fluid max-min flows on
:class:`~repro.topology.hierarchy.HierarchicalTopology` (disjoint rack
stars — the SimGrid-style electrical model); inter-rack transfers ride
the leader ring through the *same* conflict-exact RWA machinery as the
flat optical ring (striping, MRR tuning, memoized assignments), with
rack indices as ring positions.

Each synchronous step is mapped level by level and executed as up to
three sequential relay phases (store-and-forward at rack boundaries,
Blink/TopoOpt style):

1. **local uplink** — same-rack transfers, plus the ``src -> leader``
   leg of every cross-rack transfer whose source is not its rack
   leader; one fused fluid batch, charged ``local_step_latency``;
2. **optical** — every cross-rack transfer as ``leader -> leader`` on
   the WDM ring (RWA + striping + retuning), charged tuning and
   ``optical_step_overhead``;
3. **local downlink** — the ``leader -> dst`` legs; a second fused
   fluid batch, charged ``local_step_latency``.

A step's duration is the sum of its non-empty phases, so purely local
steps time exactly like the electrical substrate and purely
leader-level steps exactly like the optical ring — the two degenerate
fabrics (one rack; singleton racks) reproduce those substrates
bit-for-bit, which the parity tests pin.

Caching reuses both levels' existing machinery: the electrical level
pools its fluid simulators through
:class:`~repro.core.substrates.base.FluidCacheMixin` (each with its
own pattern cache, sharing compiled structures by the hierarchy
topology's shape signature), and the optical level embeds an
:class:`~repro.core.substrates.optical_ring.OpticalRingSubstrate`
whose RWA cache, admission bound, delta path and single MRR tuning
state are reused unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ...collectives.primitives import transfer_bytes
from ...collectives.schedule import Schedule
from ...config import (HierarchicalSystem, Workload, default_hierarchical)
from ...errors import ConfigurationError
from ...faults.events import FaultState
from ...optical.rwa import AssignmentPolicy
from ...topology.hierarchy import HierarchicalTopology
from .base import (ExecutionReport, FaultReplay, FluidCacheMixin, StepReport,
                   Substrate, SubstrateInfo)
from .optical_ring import (Hint, OpticalRingSubstrate, RwaCacheStats,
                           Striping, _check_striping)


class HierarchicalRackSubstrate(FluidCacheMixin, Substrate):
    """Two-level schedule execution on a rack hierarchy.

    Parameters
    ----------
    system:
        The :class:`~repro.config.HierarchicalSystem`; ``None`` derives
        a default per schedule (most-square rack split, see
        :func:`~repro.config.default_hierarchical`).
    policy:
        Leader-ring wavelength-assignment policy (per-call override via
        ``execute(..., policy=...)``).
    striping:
        Leader-ring striping mode (``"auto"``/``"off"``/``int`` >= 1;
        per-call override via ``execute(..., striping=...)``); anything
        else raises :class:`~repro.errors.ConfigurationError` before any
        step runs.

    The leader level memoizes and delta-patches its RWA exactly as the
    flat optical ring does (always on, same bounds).
    """

    name = "hier-rack"

    def __init__(self, system: Optional[HierarchicalSystem] = None,
                 policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
                 striping: Striping = "auto") -> None:
        if system is not None and not isinstance(system, HierarchicalSystem):
            raise ConfigurationError(
                f"hier-rack substrate needs a HierarchicalSystem, "
                f"got {type(system).__name__}")
        self._system = system
        self._striping = striping
        self._policy = policy
        # The optical level *is* an optical-ring substrate over rack
        # indices — its network pool, RWA cache (admission bound
        # included), striping fallback and delta path are reused
        # verbatim.
        self._ring = OpticalRingSubstrate(policy=policy, striping=striping)
        # Per-level counters, cumulative across execute() calls.
        self._local_steps = 0
        self._leader_steps = 0
        self._mixed_steps = 0
        self._relayed_transfers = 0

    # -- cache management ---------------------------------------------------

    def rwa_cache_info(self) -> RwaCacheStats:
        """Leader-level RWA cache counters."""
        return self._ring.rwa_cache_info()

    def clear_rwa_cache(self) -> None:
        """Drop every memoized leader-level RWA solution."""
        self._ring.clear_rwa_cache()

    # -- substrate interface ------------------------------------------------

    def describe(self) -> SubstrateInfo:
        """Metadata: both levels' parameters, the per-level execution
        counters, and both levels' cache statistics."""
        stats = self.rwa_cache_info()
        params: List[Tuple[str, object]] = [
            ("policy", self._policy.value),
            ("striping", self._striping),
            ("local_steps", self._local_steps),
            ("leader_steps", self._leader_steps),
            ("mixed_steps", self._mixed_steps),
            ("relayed_transfers", self._relayed_transfers),
            ("rwa_cache_hits", stats.hits),
            ("rwa_cache_misses", stats.misses),
            ("rwa_cache_hit_rate", round(stats.hit_rate, 4)),
            ("rwa_cache_skipped", stats.skipped),
            ("rwa_delta_patched", self._ring.delta_patched),
            ("rwa_delta_fallbacks", self._ring.delta_fallbacks),
        ]
        params += self._fluid_cache_params()
        params += self._fault_params()
        if self._system is not None:
            params += [
                ("num_nodes", self._system.num_nodes),
                ("group_size", self._system.group_size),
                ("num_groups", self._system.num_groups),
                ("local_link_rate", self._system.local_link_rate),
                ("num_wavelengths", self._system.num_wavelengths),
            ]
        return SubstrateInfo(
            name=self.name, kind="hierarchical",
            description="electrical racks (max-min fluid stars) on a "
                        "WDM leader ring (conflict-exact RWA); "
                        "cross-rack transfers relay through rack "
                        "leaders",
            parameters=tuple(params))

    def execute(self, schedule: Schedule, workload: Workload,
                striping: Optional[Striping] = None,
                policy: Optional[AssignmentPolicy] = None,
                ) -> ExecutionReport:
        """Execute ``schedule`` on the hierarchy (see module docstring)."""
        if striping is not None:
            _check_striping(striping)
        return self._run(self._resolve_system(schedule), schedule, workload,
                         striping, policy)

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan, striping: Optional[Striping] = None,
                        policy: Optional[AssignmentPolicy] = None):
        """Degraded replay across both fabric levels, through the loop
        of :meth:`execute`.

        Host-level faults mask the rack-star topology for the local
        phases (clean steps keep the healthy phase makespans, faulty
        ones re-solve on the degraded hierarchy).  Faults that touch
        the leader plane are *lifted to rack granularity* for the
        optical phase: a failed rack leader takes its rack's ring
        position down, a failed leader-to-leader link cuts the
        corresponding ring arc, and wavelength losses pass through
        unchanged — all replayed through the embedded ring's live
        ``run_step`` so channel state carries across steps, exactly
        like the flat optical ring's degraded path.  OCS stalls delay
        composite step starts; a partition at either level raises
        :class:`~repro.errors.DegradedError`.
        """
        if striping is not None:
            _check_striping(striping)
        system = self._resolve_system(schedule)
        replay = FaultReplay(plan, system.num_nodes, system.num_wavelengths)
        healthy = self._run(system, schedule, workload, striping, policy)
        return replay.result(self._run(system, schedule, workload, striping,
                                       policy, replay, healthy.steps))

    def _run(self, system: HierarchicalSystem, schedule: Schedule,
             workload: Workload, striping: Optional[Striping],
             policy: Optional[AssignmentPolicy],
             replay: Optional[FaultReplay] = None,
             healthy: Sequence[StepReport] = ()) -> ExecutionReport:
        """The hierarchy's one step loop, fault-free or under ``replay``
        (degraded steps are charged against the ``healthy`` ones; the
        per-level counters advance on fault-free runs only)."""
        striping = self._striping if striping is None else striping
        policy = self._policy if policy is None else policy

        # -- map every step's transfers to levels ------------------------
        (up_steps, down_steps, leader_steps,
         relayed_per_step) = self._map_steps(system, schedule, workload)

        # -- solve both local phases in two fused fluid batches ----------
        sim = self._simulator(system)
        up_times = sim.step_time_many(up_steps)
        down_times = sim.step_time_many(down_steps)

        net = opt_system = None
        if any(hints for hints, _ in leader_steps):
            opt_system = system.optical_system()
            net = self._ring._network(opt_system)
            net.reset()

        # -- compose the per-step relay timing ---------------------------
        report = ExecutionReport(schedule_name=schedule.name,
                                 substrate=self.name)
        now = 0.0
        alpha = system.local_step_latency
        try:
            for idx, step in enumerate(schedule.steps):
                stall = 0.0
                up_t, down_t = up_times[idx], down_times[idx]
                if replay is not None:
                    state, stall = replay.enter(now)
                    if not state.is_clean:
                        dsim = self._degraded_simulator(system, state)
                        up_t = dsim.step_time(up_steps[idx])
                        down_t = dsim.step_time(down_steps[idx])
                serialization = 0.0
                overhead = 0.0
                propagation = 0.0
                tuning = 0.0
                k = 1
                demand = 0
                span = 0
                # Phase durations are composed whole (not re-summed from
                # the decomposition below) so the degenerate fabrics stay
                # bit-for-bit equal to the flat substrates.
                up_dur = down_dur = opt_dur = 0.0
                has_local = bool(up_steps[idx]) or bool(down_steps[idx])
                lead_hints, lead_sizes = leader_steps[idx]
                has_leader = bool(lead_hints)
                if up_steps[idx]:
                    up_dur = alpha + up_t
                    serialization += up_t
                    overhead += alpha
                if has_leader:
                    if replay is not None:
                        links, nodes = self._lift_rack_state(system, state)
                        net.apply_fault_state(FaultState(
                            failed_links=links, failed_nodes=nodes,
                            failed_wavelengths=state.failed_wavelengths))
                    out = self._ring.run_step(net, opt_system, policy,
                                              striping, lead_hints,
                                              lead_sizes)
                    opt_dur = out.duration
                    serialization += out.serialization
                    propagation = out.propagation
                    tuning = out.tuning
                    overhead += out.overhead
                    k = out.striping
                    demand = out.wavelength_demand
                    span = out.spectrum_span
                if down_steps[idx]:
                    down_dur = alpha + down_t
                    serialization += down_t
                    overhead += alpha
                # Counters advance only once the step has actually
                # executed (both levels solved), so a mid-schedule
                # failure leaves describe() consistent with the work
                # done; a replay re-runs steps already counted.
                if replay is None:
                    if has_leader and has_local:
                        self._mixed_steps += 1
                    elif has_leader:
                        self._leader_steps += 1
                    else:
                        self._local_steps += 1
                    self._relayed_transfers += relayed_per_step[idx]
                duration = up_dur + opt_dur + down_dur + stall
                if replay is not None and not state.is_clean:
                    replay.degrade(idx, (duration - stall)
                                   - healthy[idx].duration)
                now += duration
                report.steps.append(StepReport(
                    index=idx, duration=duration,
                    serialization_time=serialization,
                    propagation_time=propagation,
                    tuning_time=tuning,
                    overhead_time=overhead + stall,
                    num_transfers=len(step),
                    striping=k,
                    wavelength_demand=demand,
                    spectrum_span=span))
        finally:
            # The pooled ring network must come back healthy for the
            # next plain execute() even when a partition aborts a replay.
            if net is not None:
                net.clear_faults()
        report.total_time = now
        return report

    # -- internals ----------------------------------------------------------

    def _map_steps(self, system: HierarchicalSystem, schedule: Schedule,
                   workload: Workload):
        """Map every step's transfers to the three relay phases.

        Returns ``(up_steps, down_steps, leader_steps, relayed)`` —
        the per-step local uplink / downlink fluid batches, the
        leader-ring steps over rack indices as the ``(hints, sizes)``
        that :meth:`OpticalRingSubstrate.run_step` takes, and the
        relayed-transfer counts (see :meth:`execute`).
        """
        up_steps: List[List[Tuple[int, int, float]]] = []
        down_steps: List[List[Tuple[int, int, float]]] = []
        leader_steps: List[Tuple[Tuple[Hint, ...], List[float]]] = []
        relayed_per_step: List[int] = []
        for step in schedule.steps:
            up: List[Tuple[int, int, float]] = []
            down: List[Tuple[int, int, float]] = []
            hints: List[Hint] = []
            sizes: List[float] = []
            relayed = 0
            for t in step:
                b = transfer_bytes(t, workload.data_bytes,
                                   schedule.num_chunks)
                src_rack = system.rack_of(t.src)
                dst_rack = system.rack_of(t.dst)
                if src_rack == dst_rack:
                    up.append((t.src, t.dst, b))
                    continue
                src_leader = system.leader_of(t.src)
                dst_leader = system.leader_of(t.dst)
                if t.src != src_leader:
                    up.append((t.src, src_leader, b))
                if t.dst != dst_leader:
                    down.append((dst_leader, t.dst, b))
                if t.src != src_leader or t.dst != dst_leader:
                    relayed += 1
                hints.append((src_rack, dst_rack, t.direction_hint))
                sizes.append(b)
            up_steps.append(up)
            down_steps.append(down)
            leader_steps.append((tuple(hints), sizes))
            relayed_per_step.append(relayed)
        return up_steps, down_steps, leader_steps, relayed_per_step

    def _lift_rack_state(self, system: HierarchicalSystem, state):
        """Project host-level failures onto the leader ring.

        A failed rack *leader* node takes its rack's ring position
        down; a failed link whose endpoints are leaders of *different*
        racks cuts that leader-ring arc.  Purely intra-rack failures
        (member hosts, star legs) never reach the optical plane.
        """
        rack_links = frozenset(
            (system.rack_of(u), system.rack_of(v))
            for u, v in state.failed_links
            if (system.leader_of(u) == u and system.leader_of(v) == v
                and system.rack_of(u) != system.rack_of(v)))
        rack_nodes = frozenset(
            system.rack_of(n) for n in state.failed_nodes
            if system.leader_of(n) == n)
        return rack_links, rack_nodes

    def _default_system(self, num_nodes: int) -> HierarchicalSystem:
        return default_hierarchical(num_nodes)

    def _build_topology(self, system: HierarchicalSystem):
        """The host-level topology of the local phases."""
        return HierarchicalTopology(system.num_nodes, system.group_size,
                                    capacity=system.local_link_rate)
