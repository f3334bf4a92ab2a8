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
  subproblem hundreds of times, resolve it once.  Each entry also
  carries the step's MRR selection and per-transfer timing constants,
  and a **pattern memo** (same bound and admission policy) keeps each
  input pattern's longest-arc-first order and path demand, so a cache
  hit costs O(transfers in the step), not O(ring size).  Cached and
  cold runs produce identical reports (pinned by the test suite);
* the **delta RWA path**: a cache miss patches the network's previous
  step assignment (:func:`~repro.optical.rwa.assign_wavelengths_delta`)
  instead of solving from scratch, falling back on striping or demand
  changes — bit-for-bit the full re-solve (parity-pinned).

Both memos and the delta path change speed only, so they are always on;
the bounds are :data:`DEFAULT_RWA_CACHE_SIZE` and
:data:`DEFAULT_RWA_CACHE_MAX_TRANSFERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...collectives.primitives import transfer_bytes
from ...collectives.schedule import Schedule
from ...config import OpticalRingSystem, Workload, default_optical
from ...errors import ConfigurationError, WavelengthAllocationError
from ...optical.ring_network import OpticalRingNetwork
from ...optical.rwa import (AssignmentPolicy, RwaDelta, RwaResult,
                            TransferRequest, assign_wavelengths,
                            assign_wavelengths_delta, max_link_demand,
                            striping_for_demand)
from ...topology.ring import Direction
from .base import (CacheStats, ExecutionReport, FaultReplay, LruCache,
                   StepReport, Substrate, SubstrateInfo)

Striping = Union[str, int]

#: One transfer of a step as the ring routes it: ``(src, dst, hint)``
#: with the schedule's direction hint, ``"cw"``, ``"ccw"`` or ``None``
#: for the shortest arc.  Strings and ints hash in C, so the memo keys
#: built from hints cost no Python-level ``__hash__`` per transfer.
Hint = Tuple[int, int, Optional[str]]

#: Bound on memoized RWA solutions per substrate instance, and on
#: memoized step patterns.
DEFAULT_RWA_CACHE_SIZE = 4096

#: Admission bound: steps with more routed transfers than this are
#: solved but not memoized (their keys and assignments are large, and
#: steps that size rarely repeat); skipped solves surface as
#: ``rwa_cache_skipped`` in ``describe()``.  The pattern memo admits the
#: same steps.
DEFAULT_RWA_CACHE_MAX_TRANSFERS = 1024


@dataclass(frozen=True)
class RwaCacheStats(CacheStats):
    """Hit/miss counters of one substrate's RWA cache.

    The generic :class:`~repro.core.substrates.base.CacheStats` with the
    RWA cache's default capacity (kept as a distinct name for callers
    that dispatch on the cache kind).
    """

    max_size: int = DEFAULT_RWA_CACHE_SIZE


def _check_striping(striping: object) -> None:
    """Reject anything but ``"auto"``, ``"off"`` or an ``int`` >= 1."""
    if isinstance(striping, str):
        ok = striping in ("auto", "off")
    else:
        ok = (isinstance(striping, int) and not isinstance(striping, bool)
              and striping >= 1)
    if not ok:
        raise ConfigurationError(
            f"striping must be 'auto', 'off' or an int >= 1, "
            f"got {striping!r}")


def _hint_direction(hint: Optional[str]) -> Optional[Direction]:
    """The :class:`Direction` a hint names (``None``: shortest arc)."""
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
        fixed ``int`` factor >= 1.  Per-call override via
        ``execute(..., striping=...)``; anything else raises
        :class:`~repro.errors.ConfigurationError` before any step runs.

    The RWA cache, the pattern memo and the delta RWA path are always
    on (see the module docstring); none of them changes a result.
    """

    name = "optical-ring"

    def __init__(self, system: Optional[OpticalRingSystem] = None,
                 policy: AssignmentPolicy = AssignmentPolicy.FIRST_FIT,
                 striping: Striping = "auto") -> None:
        if system is not None and not isinstance(system, OpticalRingSystem):
            raise ConfigurationError(
                f"optical-ring substrate needs an OpticalRingSystem, "
                f"got {type(system).__name__}")
        _check_striping(striping)
        self._system = system
        self._policy = policy
        self._striping = striping
        self._networks: Dict[OpticalRingSystem, OpticalRingNetwork] = {}
        self._cache = LruCache(
            DEFAULT_RWA_CACHE_SIZE,
            admit_cost_bound=DEFAULT_RWA_CACHE_MAX_TRANSFERS)
        self._patterns = LruCache(
            DEFAULT_RWA_CACHE_SIZE,
            admit_cost_bound=DEFAULT_RWA_CACHE_MAX_TRANSFERS)
        self._delta_patched = 0
        self._delta_fallbacks = 0

    # -- cache management ---------------------------------------------------

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
        """Drop every memoized RWA solution and step pattern (counters
        reset too)."""
        self._cache.clear()
        self._patterns.clear()

    # -- substrate interface ------------------------------------------------

    def describe(self) -> SubstrateInfo:
        """Metadata: ring model, policy, striping and cache counters.

        Cache *statistics* are included alongside the static settings
        (``rwa_cache_hits`` / ``_misses`` / ``_hit_rate``) so cache
        behaviour is observable wherever substrates are introspected —
        notably ``plan --substrate`` on the CLI.
        """
        stats = self.rwa_cache_info()
        params = self._fault_params()
        params += [("policy", self._policy.value),
                  ("striping", self._striping),
                  ("rwa_cache_hits", stats.hits),
                  ("rwa_cache_misses", stats.misses),
                  ("rwa_cache_hit_rate", round(stats.hit_rate, 4)),
                  ("rwa_cache_skipped", stats.skipped),
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
        if striping is not None:
            _check_striping(striping)
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
        if striping is not None:
            _check_striping(striping)
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
                hints = tuple((t.src, t.dst, t.direction_hint)
                              for t in step)
                sizes = [transfer_bytes(t, workload.data_bytes,
                                        schedule.num_chunks) for t in step]
                out = self.run_step(net, system, policy, striping, hints,
                                    sizes)
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
                 hints: Tuple[Hint, ...], sizes: Sequence[float],
                 ) -> OpticalStepOutcome:
        """Route, stripe, assign and time one synchronous step on ``net``.

        The step is its transfers' ``(src, dst, hint)`` ``hints`` (see
        :data:`Hint`) and their byte ``sizes``, index for index.

        The per-step core of :meth:`execute`, exposed so substrates
        that embed an optical ring level (the hierarchical rack fabric)
        run *exactly* this code path — striping decision, memoized RWA
        with thinner-striping fallback, MRR retuning against the
        network's carried tuning state, slowest-transfer timing — and
        stay bit-for-bit comparable with the flat ring.  ``net`` must
        belong to ``system`` (see :meth:`_network`) and carries channel
        state across consecutive calls; ``striping`` must be a mode the
        substrate accepted.

        Both memos are exact.  The pattern memo (:meth:`_pattern`)
        holds what ``hints`` alone decides: its longest-arc-first
        order, the RWA key and the path demand; the striping factor is
        still derived every step from that demand and the live
        wavelength budget.  An RWA cache entry holds the assignment
        plus its :meth:`_shape` — the MRR selection and per-transfer
        timing constants — which, like the assignment, are pure
        functions of (pattern, k, fault key) on a given system and
        policy, i.e. of the cache key.  Tuning is charged only through
        :meth:`OpticalRingNetwork.retune`, which compares the selection
        with the one it last installed, so a hit charges the same
        tuning a miss would and times the step from ``sizes`` alone.
        :class:`TransferRequest`\\ s are built only on a miss
        of either memo: a hit is index and float work over the step's
        transfers.
        """
        order, pattern, demand = self._pattern(net, hints)
        # -- decide striping -------------------------------------------
        if striping == "off" or not system.allow_striping:
            k = 1
        elif striping == "auto":
            # Lost transceiver channels shrink the striping budget: the
            # degraded ring stripes over what actually survives (the
            # healthy path subtracts zero and is unchanged).
            budget = system.num_wavelengths - len(net.failed_wavelengths)
            k = striping_for_demand(demand, budget)
        else:
            k = striping

        # -- wavelength assignment (conflict-exact, memoized) --------
        k, rwa, (selection, timing) = self._assign(
            net, system, policy, pattern, k)

        # -- retuning: paid only when the selection changes ----------
        tuning = net.retune(selection)

        # -- timing: slowest transfer bounds the step ----------------
        serialization = 0.0
        propagation = 0.0
        slowest = 0.0
        for idx, rate, prop in timing:
            ser = sizes[order[idx]] / rate
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

    def _pattern(self, net: OpticalRingNetwork,
                 hints: Tuple[Hint, ...]) -> Tuple:
        """``(order, pattern, demand)`` of one step's ``hints``, memoized.

        ``order`` lists the transfer indices longest arc first, ties by
        ``(src, dst)`` and then input order: the classic circular-arc
        colouring heuristic (even so First-Fit can occasionally need
        more than demand*k channels, hence :meth:`_assign`'s fallback).
        ``pattern`` is ``hints`` in that order, the RWA cache key;
        ``demand`` is the unstriped worst-segment flow count.  All three
        depend only on the ring and on ``hints``.  The memos key on
        ``net``, which stands for its system (:meth:`_network` keeps one
        network per system), because a network hashes by identity in C
        and a system dataclass hashes field by field in Python.
        """
        key = (net, hints)
        hit = self._patterns.get(key)
        if hit is not None:
            return hit
        ring = net.topology

        def arc_len(i: int) -> int:
            src, dst, hint = hints[i]
            d = _hint_direction(hint)
            if d is None:
                d = ring.shortest_direction(src, dst)
            return ring.distance(src, dst, d)

        order = tuple(sorted(range(len(hints)),
                             key=lambda i: (-arc_len(i), hints[i][0],
                                            hints[i][1])))
        requests = [TransferRequest(src=src, dst=dst,
                                    direction=_hint_direction(hint))
                    for src, dst, hint in hints]
        entry = (order, tuple(hints[i] for i in order),
                 max_link_demand(requests, ring, count_stripes=False))
        self._patterns.put(key, entry, cost=len(hints))
        return entry

    def _assign(self, net: OpticalRingNetwork, system: OpticalRingSystem,
                policy: AssignmentPolicy, pattern: Tuple[Hint, ...],
                k: int) -> Tuple:
        """Striping-fallback RWA for one step, memoized.

        Returns ``(k_final, rwa, shape)``: the final striping factor,
        the (possibly cached) assignment of the sorted routed
        ``pattern``, and its :meth:`_shape`.  The cache key is
        ``pattern``, ``k``, the policy, the system (as ``net``, see
        :meth:`_pattern`) and the fault masks — transfer sizes only
        enter the timing, which the caller computes.  Infeasible steps
        raise :class:`~repro.errors.WavelengthAllocationError` exactly as
        the cold path does (failures are not cached).
        """
        key = (net, policy.value, k, pattern)
        fault_key = net.fault_key()
        if fault_key:
            # Degraded solutions are memoized apart from healthy ones
            # (and from other masks); healthy keys keep their exact
            # shape, so healthy steps still hit.
            key = key + (fault_key,)
        hit = self._cache.get(key)
        if hit is not None:
            # The network occupancy is untouched on a hit, so its
            # rwa_delta patch base (last *solved* step) stays valid.
            return hit

        k, requests, rwa = self._solve(net, policy, pattern, k)
        value = (k, rwa, self._shape(net, system, requests, rwa))
        # Admission policy: very large steps are solved but not memoized
        # (`rwa_cache_skipped` counts them).
        self._cache.put(key, value, cost=len(pattern))
        return value

    def _solve(self, net: OpticalRingNetwork, policy: AssignmentPolicy,
               ordered: Sequence[Hint], k: int) -> Tuple:
        """Solve one step's RWA on ``net``: ``(k_final, requests, rwa)``.

        ``ordered`` is the step's routed pattern, longest arc first.
        Patches the network's previous assignment when the delta path
        applies, else solves from scratch, thinning the striping until
        the step fits (raising at ``k = 1``).  ``requests`` carry
        ``num_wavelengths=k_final`` and no size: wavelength assignment
        never reads one.
        """
        def requests_at(k: int) -> List[TransferRequest]:
            return [TransferRequest(src=src, dst=dst,
                                    direction=_hint_direction(hint),
                                    num_wavelengths=k)
                    for src, dst, hint in ordered]

        prev = net.rwa_delta
        if isinstance(prev, RwaDelta):
            requests = requests_at(k)
            rwa = assign_wavelengths_delta(net, requests, policy, prev)
            if rwa is not None:
                self._delta_patched += 1
                net.rwa_delta = RwaDelta.from_solution(
                    policy, k, requests, rwa, fault_key=net.fault_key())
                return k, requests, rwa
            # The patch contract broke (striping/demand change, direction
            # flip, or a placement failure); the cold loop's clear()
            # restores a clean slate.
            self._delta_fallbacks += 1

        while True:
            requests = requests_at(k)
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
        return k, requests, rwa

    @staticmethod
    def _shape(net: OpticalRingNetwork, system: OpticalRingSystem,
               requests: Sequence[TransferRequest], rwa: RwaResult) -> Tuple:
        """``(selection, timing)`` of a solved step, for the RWA cache.

        ``selection`` is the step's sparse MRR selection
        (:meth:`OpticalRingNetwork.selection`); ``timing`` holds
        ``(index, channels x wavelength_rate, propagation delay)`` per
        transfer, in assignment order.  With the transfer sizes, that
        is all :meth:`run_step` needs to retune and time the step.
        """
        ring = net.topology
        arcs = []
        timing = []
        for idx, (direction, chans) in rwa.assignments.items():
            req = requests[idx]
            arcs.append((req.src, req.dst, direction, chans))
            hops = ring.distance(req.src, req.dst, direction)
            timing.append((idx, len(chans) * system.wavelength_rate,
                           system.propagation_delay(hops)))
        return net.selection(arcs), tuple(timing)
