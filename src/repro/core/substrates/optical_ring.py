"""The WDM optical ring substrate (conflict-exact RWA, memoized).

A stateful :class:`~repro.core.substrates.base.Substrate`: each step
performs *real* routing and wavelength assignment on the ring (raises
if the step is infeasible with the system's wavelength budget), charges
MRR tuning whenever a node's channel selection changes, propagation per
hop, and serialization at ``k x wavelength_rate`` for a striping factor
``k`` derived from the step's true segment congestion.

What the substrate keeps across calls:

* the :class:`~repro.optical.ring_network.OpticalRingNetwork` is built
  once per system and kept alive across ``execute`` calls (it is
  ``reset()`` per call, so results are identical to a cold run);
* an **RWA memoization cache**: a wavelength assignment depends only on
  the step's routed transfer pattern, the striping factor, and the
  policy — not on transfer sizes — so the planner's ``m x variant``
  sweep and the ablation grids, which re-pose the same per-step RWA
  subproblem hundreds of times, resolve it once.  Cached and cold runs
  produce identical reports (pinned by the test suite).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

from ...collectives.primitives import transfer_bytes
from ...collectives.schedule import Schedule
from ...config import OpticalRingSystem, Workload, default_optical
from ...errors import ConfigurationError, WavelengthAllocationError
from ...optical.ring_network import OpticalRingNetwork
from ...optical.rwa import (AssignmentPolicy, RwaDelta, TransferRequest,
                            assign_wavelengths, assign_wavelengths_delta,
                            compute_striping_factor)
from ...topology.ring import Direction
from .base import (CacheStats, ExecutionReport, FaultReplay, LruCache,
                   StepReport, Substrate, SubstrateInfo)

Striping = Union[str, int]

#: Default bound on memoized RWA solutions per substrate instance.
DEFAULT_RWA_CACHE_SIZE = 4096

#: Default admission bound: steps with more routed transfers than this
#: are solved but not memoized (their keys and assignments are large,
#: and steps that size rarely repeat).
DEFAULT_RWA_CACHE_MAX_TRANSFERS = 1024


@dataclass(frozen=True)
class RwaCacheStats(CacheStats):
    """Hit/miss counters of one substrate's RWA cache.

    The generic :class:`~repro.core.substrates.base.CacheStats` with the
    RWA cache's default capacity (kept as a distinct name for callers
    that dispatch on the cache kind).
    """

    max_size: int = DEFAULT_RWA_CACHE_SIZE


def _hint_direction(hint: Optional[str]) -> Optional[Direction]:
    if hint == "cw":
        return Direction.CW
    if hint == "ccw":
        return Direction.CCW
    return None


@dataclass(frozen=True)
class OpticalStepOutcome:
    """Timing decomposition of one RWA-executed synchronous step.

    The per-step result of :meth:`OpticalRingSubstrate.run_step` —
    shared by the ring substrate's own ``execute`` loop and the
    hierarchical rack fabric, whose leader level runs the *same* RWA
    machinery over rack indices.  ``duration`` already includes
    tuning and the system's per-step overhead.
    """

    duration: float
    serialization: float
    propagation: float
    tuning: float
    overhead: float
    striping: int
    wavelength_demand: int
    spectrum_span: int


class OpticalRingSubstrate(Substrate):
    """Conflict-exact schedule execution on the WDM optical ring.

    Parameters
    ----------
    system:
        The :class:`~repro.config.OpticalRingSystem` to execute on.
        ``None`` derives a default TeraRack-style system per schedule
        (sized to ``schedule.num_nodes``); networks are cached per
        resolved system either way.
    policy:
        Default wavelength-assignment policy (per-call override via
        ``execute(..., policy=...)``).
    striping:
        Default striping mode — ``"auto"`` (per-step WDM exploitation),
        ``"off"`` (one wavelength per flow, the O-Ring convention), or a
        fixed ``int`` factor.  Per-call override via
        ``execute(..., striping=...)``.
    cache:
        Enable the RWA memoization cache (identical results either way).
    cache_size:
        Bound on memoized RWA solutions (LRU eviction).
    cache_max_transfers:
        Admission bound: steps with more routed transfers than this are
        solved but not memoized (``None`` admits everything); skipped
        solves surface as ``rwa_cache_skipped`` in :meth:`describe`.
    incremental:
        Enable the delta RWA path: on a memo-cache miss, patch the
        network's previous step assignment
        (:func:`~repro.optical.rwa.assign_wavelengths_delta`) instead of
        solving from scratch, falling back on striping/demand changes.
        Results are bit-for-bit identical either way (parity-pinned).
    """

    name = "optical-ring"

    def __init__(self, system: Optional[OpticalRingSystem] = None,
                 policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
                 striping: Striping = "auto",
                 cache: bool = True,
                 cache_size: int = DEFAULT_RWA_CACHE_SIZE,
                 cache_max_transfers: Optional[int]
                 = DEFAULT_RWA_CACHE_MAX_TRANSFERS,
                 incremental: bool = True) -> None:
        if system is not None and not isinstance(system, OpticalRingSystem):
            raise ConfigurationError(
                f"optical-ring substrate needs an OpticalRingSystem, "
                f"got {type(system).__name__}")
        self._system = system
        self._policy = policy
        self._striping = striping
        self._networks: Dict[OpticalRingSystem, OpticalRingNetwork] = {}
        self._cache_enabled = cache
        self._cache = LruCache(cache_size,
                               admit_cost_bound=cache_max_transfers)
        self._incremental = incremental
        self._delta_patched = 0
        self._delta_fallbacks = 0

    # -- cache management ---------------------------------------------------

    @property
    def cache_enabled(self) -> bool:
        """Whether RWA solutions are being memoized."""
        return self._cache_enabled

    @property
    def incremental(self) -> bool:
        """Whether the delta RWA path is enabled."""
        return self._incremental

    @property
    def delta_patched(self) -> int:
        """Steps solved by patching the previous assignment."""
        return self._delta_patched

    @property
    def delta_fallbacks(self) -> int:
        """Delta attempts that fell back to a from-scratch solve."""
        return self._delta_fallbacks

    def rwa_cache_info(self) -> RwaCacheStats:
        """Current cache counters."""
        return RwaCacheStats(hits=self._cache.hits,
                             misses=self._cache.misses,
                             size=len(self._cache),
                             max_size=self._cache.max_size,
                             skipped=self._cache.skipped)

    def clear_rwa_cache(self) -> None:
        """Drop every memoized RWA solution (counters reset too)."""
        self._cache.clear()

    # -- substrate interface ------------------------------------------------

    def describe(self) -> SubstrateInfo:
        """Metadata: ring model, policy, striping and cache settings.

        Cache *statistics* are included alongside the static settings
        (``rwa_cache_hits`` / ``_misses`` / ``_hit_rate``) so cache
        behaviour is observable wherever substrates are introspected —
        notably ``plan --substrate`` on the CLI.
        """
        stats = self.rwa_cache_info()
        params = self._fault_params()
        params += [("policy", self._policy.value),
                  ("striping", self._striping),
                  ("rwa_cache", self._cache_enabled),
                  ("rwa_cache_hits", stats.hits),
                  ("rwa_cache_misses", stats.misses),
                  ("rwa_cache_hit_rate", round(stats.hit_rate, 4)),
                  ("rwa_cache_skipped", stats.skipped),
                  ("rwa_incremental", self._incremental),
                  ("rwa_delta_patched", self._delta_patched),
                  ("rwa_delta_fallbacks", self._delta_fallbacks)]
        if self._system is not None:
            params += [("num_nodes", self._system.num_nodes),
                       ("num_wavelengths", self._system.num_wavelengths)]
        return SubstrateInfo(
            name=self.name, kind="optical",
            description="bidirectional WDM ring with conflict-exact "
                        "per-step RWA, MRR tuning, and striping",
            parameters=tuple(params))

    def execute(self, schedule: Schedule, workload: Workload,
                striping: Optional[Striping] = None,
                policy: Optional[AssignmentPolicy] = None,
                ) -> ExecutionReport:
        """Execute ``schedule`` on the ring (see class docstring)."""
        return self._run(self._resolve_system(schedule), schedule, workload,
                         striping, policy)

    def _execute_faulty(self, schedule: Schedule, workload: Workload,
                        plan, striping: Optional[Striping] = None,
                        policy: Optional[AssignmentPolicy] = None):
        """Degraded replay: the loop of :meth:`execute` runs every step's
        live ``run_step`` RWA under the fault state sampled at its start.

        Unlike the fluid substrates there is no per-step shortcut to
        the healthy report — channel selections carry tuning state
        across steps, so each step must be placed against what the
        previous one actually chose.  A clean mask *is* the healthy
        code path though, so runs re-converge to the fault-free
        channel pattern (and timings) once repairs land: the first
        post-repair solve is a full re-solve back to the healthy
        colouring, and the step after that re-tunes nothing.

        Wavelength losses displace requests as incremental churn;
        link cuts reroute arcs the other way (full re-solve); a
        partition raises :class:`~repro.errors.DegradedError`.
        """
        system = self._resolve_system(schedule)
        replay = FaultReplay(plan, system.num_nodes, system.num_wavelengths)
        healthy = self._run(system, schedule, workload, striping, policy)
        return replay.result(self._run(system, schedule, workload, striping,
                                       policy, replay, healthy.steps))

    def _run(self, system: OpticalRingSystem, schedule: Schedule,
             workload: Workload, striping: Optional[Striping],
             policy: Optional[AssignmentPolicy],
             replay: Optional[FaultReplay] = None,
             healthy: Sequence[StepReport] = ()) -> ExecutionReport:
        """The ring's one step loop, fault-free or under ``replay``
        (degraded steps are charged against the ``healthy`` ones)."""
        striping = self._striping if striping is None else striping
        policy = self._policy if policy is None else policy
        net = self._network(system)
        net.reset()
        report = ExecutionReport(schedule_name=schedule.name,
                                 substrate=self.name)
        now = 0.0
        try:
            for idx, step in enumerate(schedule.steps):
                stall = 0.0
                if replay is not None:
                    state, stall = replay.enter(now)
                    net.apply_fault_state(state)
                base_requests = [
                    TransferRequest(
                        src=t.src, dst=t.dst,
                        size=transfer_bytes(t, workload.data_bytes,
                                            schedule.num_chunks),
                        direction=_hint_direction(t.direction_hint))
                    for t in step]
                out = self.run_step(net, system, policy, striping,
                                    base_requests)
                if replay is not None and not state.is_clean:
                    replay.degrade(idx,
                                   out.duration - healthy[idx].duration)
                duration = out.duration + stall
                now += duration
                report.steps.append(StepReport(
                    index=idx, duration=duration,
                    serialization_time=out.serialization,
                    propagation_time=out.propagation,
                    tuning_time=out.tuning,
                    overhead_time=out.overhead + stall,
                    num_transfers=len(step),
                    striping=out.striping,
                    wavelength_demand=out.wavelength_demand,
                    spectrum_span=out.spectrum_span))
        finally:
            # The pooled network must come back healthy for the next
            # plain execute() even when a partition aborts a replay.
            net.clear_faults()
        report.total_time = now
        return report

    def run_step(self, net: OpticalRingNetwork, system: OpticalRingSystem,
                 policy: AssignmentPolicy, striping: Striping,
                 base_requests: List[TransferRequest],
                 ) -> OpticalStepOutcome:
        """Route, stripe, assign and time one synchronous step on ``net``.

        The per-step core of :meth:`execute`, exposed so substrates
        that embed an optical ring level (the hierarchical rack fabric)
        run *exactly* this code path — striping decision, memoized RWA
        with thinner-striping fallback, MRR retuning against the
        network's carried tuning state, slowest-transfer timing — and
        stay bit-for-bit comparable with the flat ring.  ``net`` must
        belong to ``system`` (see :meth:`_network`) and carries channel
        state across consecutive calls; ``base_requests`` may be
        reordered in place (longest arcs first).
        """
        ring = net.topology
        # -- decide striping -------------------------------------------
        if striping == "off" or not system.allow_striping:
            k = 1
        elif striping == "auto":
            # Lost transceiver channels shrink the striping budget: the
            # degraded ring stripes over what actually survives (the
            # healthy path subtracts zero and is unchanged).
            budget = system.num_wavelengths - len(net.failed_wavelengths)
            k = compute_striping_factor(base_requests, ring, budget)
        else:
            k = int(striping)
            if k < 1:
                raise ConfigurationError(f"striping factor {k} < 1")

        # -- wavelength assignment (conflict-exact, memoized) --------
        # Longest arcs are placed first (the classic circular-arc
        # colouring heuristic); even so First-Fit can occasionally
        # need more than demand*k channels, so on failure fall back
        # to thinner striping before giving up at k=1.
        def arc_len(r: TransferRequest) -> int:
            d = r.direction if r.direction is not None \
                else ring.shortest_direction(r.src, r.dst)
            return ring.distance(r.src, r.dst, d)

        base_requests.sort(key=lambda r: (-arc_len(r), r.src, r.dst))
        k, requests, rwa = self._assign(net, system, policy,
                                        base_requests, k)

        # -- retuning: each node's new channel selection -------------
        tx: Dict[int, Dict[str, Set[int]]] = {}
        rx: Dict[int, Dict[str, Set[int]]] = {}
        for req_idx, (direction, chans) in rwa.assignments.items():
            req = requests[req_idx]
            dkey = direction.value
            tx.setdefault(req.src, {}).setdefault(dkey,
                                                  set()).update(chans)
            rx.setdefault(req.dst, {}).setdefault(dkey,
                                                  set()).update(chans)
        tuning = 0.0
        for node in net.nodes:
            tuning = max(tuning, node.retune_for_step(
                tx.get(node.node_id, {}), rx.get(node.node_id, {})))

        # -- timing: slowest transfer bounds the step ----------------
        serialization = 0.0
        propagation = 0.0
        slowest = 0.0
        for req_idx, (direction, chans) in rwa.assignments.items():
            req = requests[req_idx]
            hops = ring.distance(req.src, req.dst, direction)
            ser = req.size / (len(chans) * system.wavelength_rate)
            prop = system.propagation_delay(hops)
            if ser + prop > slowest:
                slowest = ser + prop
                serialization = ser
                propagation = prop
        duration = tuning + system.step_overhead + slowest
        return OpticalStepOutcome(
            duration=duration, serialization=serialization,
            propagation=propagation, tuning=tuning,
            overhead=system.step_overhead, striping=k,
            wavelength_demand=rwa.max_link_load,
            spectrum_span=rwa.spectrum_span)

    # -- internals ----------------------------------------------------------

    def _default_system(self, num_nodes: int) -> OpticalRingSystem:
        return default_optical(num_nodes)

    def _network(self, system: OpticalRingSystem) -> OpticalRingNetwork:
        net = self._networks.get(system)
        if net is None:
            net = OpticalRingNetwork(system)
            self._networks[system] = net
        return net

    @staticmethod
    def _signature(system: OpticalRingSystem, policy: AssignmentPolicy,
                   base_requests: List[TransferRequest], k: int) -> Tuple:
        """Canonical key of one step's RWA subproblem.

        Wavelength assignment depends on the *sorted* routed pattern
        (src, dst, direction per request), the striping factor, the
        policy, and the system — transfer sizes only enter the timing,
        which is computed outside the cache.
        """
        return (system, policy, k,
                tuple((r.src, r.dst, r.direction) for r in base_requests))

    def _assign(self, net: OpticalRingNetwork, system: OpticalRingSystem,
                policy: AssignmentPolicy,
                base_requests: List[TransferRequest], k: int):
        """Striping-fallback RWA for one step, memoized.

        Returns ``(k_final, requests, rwa)`` where ``requests`` carry
        ``num_wavelengths=k_final`` and ``rwa`` is the (possibly cached)
        assignment.  Infeasible steps raise
        :class:`~repro.errors.WavelengthAllocationError` exactly as the
        cold path does (failures are not cached).
        """
        key = None
        if self._cache_enabled:
            key = self._signature(system, policy, base_requests, k)
            fault_key = net.fault_key()
            if fault_key:
                # Degraded solutions are memoized apart from healthy
                # ones (and from other masks); healthy keys keep their
                # exact shape, so healthy steps still hit.
                key = key + (fault_key,)
            hit = self._cache.get(key)
            if hit is not None:
                # The network occupancy is untouched on a hit, so its
                # rwa_delta patch base (last *solved* step) stays valid.
                k_final, rwa = hit
                requests = [
                    TransferRequest(src=r.src, dst=r.dst, size=r.size,
                                    direction=r.direction,
                                    num_wavelengths=k_final)
                    for r in base_requests]
                return k_final, requests, rwa

        prev = net.rwa_delta if self._incremental else None
        if isinstance(prev, RwaDelta):
            requests = [
                TransferRequest(src=r.src, dst=r.dst, size=r.size,
                                direction=r.direction, num_wavelengths=k)
                for r in base_requests]
            rwa = assign_wavelengths_delta(net, requests, policy, prev)
            if rwa is not None:
                self._delta_patched += 1
                net.rwa_delta = RwaDelta.from_solution(
                    policy, k, requests, rwa, fault_key=net.fault_key())
                if key is not None:
                    self._cache.put(key, (k, rwa), cost=len(base_requests))
                return k, requests, rwa
            # The patch contract broke (striping/demand change, direction
            # flip, or a placement failure); the cold loop's clear()
            # restores a clean slate.
            self._delta_fallbacks += 1

        while True:
            requests = [
                TransferRequest(src=r.src, dst=r.dst, size=r.size,
                                direction=r.direction, num_wavelengths=k)
                for r in base_requests]
            net.clear()
            try:
                rwa = assign_wavelengths(net, requests, policy)
                break
            except WavelengthAllocationError:
                if k <= 1:
                    raise
                k -= 1

        net.rwa_delta = RwaDelta.from_solution(policy, k, requests, rwa,
                                               fault_key=net.fault_key())
        if key is not None:
            # Admission policy: very large steps are solved but not
            # memoized (`rwa_cache_skipped` counts them).
            self._cache.put(key, (k, rwa), cost=len(base_requests))
        return k, requests, rwa
