"""Flow-level ("fluid") network simulator — the SimGrid substitute.

Flows are admitted at their start times; whenever the active set changes,
the max-min fair allocation is recomputed; between changes every flow
progresses linearly at its allocated rate.  A flow that finishes
transmitting at time ``T`` is *delivered* at ``T + path latency``.

This reproduces, at the granularity the paper's evaluation needs, what
SimGrid's default TCP fluid model computes for the electrical network: an
uncongested flow of S bytes over a path of bottleneck B and latency L is
delivered at ``L + S/B``; congested flows share bottlenecks max-min
fairly.

The engine avoids repeated work on two levels:

* each ``run()`` batch is compiled once into a
  :class:`~repro.simulation.flows.CompiledFlowBatch` (CSR flow→link
  rows, a dense or ``scipy.sparse`` incidence operator picked by batch
  size, capacity vector) and the whole event loop is driven with array
  operations, one from-zero
  :func:`~repro.simulation.flows.progressive_fill` solve per event;
* whole schedules execute through :meth:`FluidNetworkSimulator.run_schedule`,
  which canonicalizes and dedupes all steps up front (reusing the key
  for identical consecutive steps) and solves each distinct step
  pattern exactly once.

Results are bit-for-bit identical to the historical per-event
implementation (pinned against the frozen oracle in
``tests/fluid_oracle.py`` by the property suite), with one documented
exception: loopback flows
(``src == dst``, empty path) are delivered instantly at admission
instead of hanging the old loop.

On top of the engine sits a **pattern-keyed step cache**
(:meth:`FluidNetworkSimulator.step_profile`): a synchronous step's
max-min dynamics depend only on the ``(src, dst)`` pattern and the
flows' *relative* sizes, and collective schedules repeat a handful of
patterns across dozens of steps, so the solved rate schedule is
memoized under a normalized key and rescaled per call.  Cached entries
are pure functions of their key — a hit returns exactly what the miss
path would compute — so warm and cold runs are byte-identical.  Each
simulator keeps its own pattern cache.  An *admission policy* keeps enormous steps from bloating the cache:
patterns above :data:`DEFAULT_PATTERN_CACHE_MAX_FLOWS` flows are solved
but not stored (counted in the cache's ``skipped`` statistic).

Every cache and the incidence backend choice change speed only, so
none of them is a switch: the caches are always on, bounded by the
module constants below, and the backend follows
:data:`~repro.simulation.flows.SPARSE_FLOW_THRESHOLD`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import inf
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..caching import CacheStats, LruCache
from ..errors import SimulationError, SimulationStallError
from ..topology.base import Topology
from .flows import (CompiledFlowBatch, compile_paths, compile_structure,
                    progressive_fill, Flow, LinkId)
from .trace import TraceRecorder

#: Event-loop safety cap: the loop may run at most
#: ``MAX_EVENT_ROUNDS_FACTOR * num_flows + 8`` events before
#: :class:`~repro.errors.SimulationStallError` is raised.  Every healthy
#: event admits or completes at least one flow, so 4 is generous; tests
#: shrink this to trip the guard deterministically.
MAX_EVENT_ROUNDS_FACTOR = 4

#: Bytes of slack below which a flow counts as finished (guards float error).
_EPS_BYTES = 1e-9

#: Bound on memoized normalized rate schedules per simulator.
DEFAULT_PATTERN_CACHE_SIZE = 1024

#: Admission bound of the pattern and compile caches: steps above this
#: many flows are solved but not memoized (pattern keys and rate
#: schedules grow with the step).
DEFAULT_PATTERN_CACHE_MAX_FLOWS = 1024

#: Bound on compiled (routed) pattern structures per simulator.
_COMPILED_PATTERN_MAX = 256

#: Bound on memoized ``(path, latency)`` routes per simulator.
_ROUTE_CACHE_MAX = 16384


@dataclass(frozen=True)
class FlowResult:
    """Outcome of one flow: delivery time and achieved mean rate."""

    src: int
    dst: int
    size: float
    start_time: float
    finish_time: float
    tag: str = ""

    @property
    def duration(self) -> float:
        """Wall-clock from start to delivery."""
        return self.finish_time - self.start_time

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in bytes/s (0 for instant flows)."""
        return self.size / self.duration if self.duration > 0 else float("inf")


@dataclass(frozen=True)
class StepProfile:
    """Solved timing of one synchronous step of concurrent transfers.

    ``finish_times`` are delivery times (transmission + path latency)
    aligned with ``pairs`` (the step's transfers in canonical sorted
    order); ``latencies`` are the per-pair path latencies.
    """

    pairs: Tuple[Tuple[int, int], ...]
    finish_times: np.ndarray
    latencies: np.ndarray

    @property
    def makespan(self) -> float:
        """Delivery time of the slowest transfer (0 for an empty step)."""
        return float(self.finish_times.max()) if self.finish_times.size \
            else 0.0

    @property
    def slowest(self) -> int:
        """Index (into ``pairs``) of the first slowest transfer
        (-1 for an empty step)."""
        if not self.finish_times.size:
            return -1
        return int(np.argmax(self.finish_times))

    @property
    def propagation(self) -> float:
        """Path latency of the slowest transfer (0 for an empty step)."""
        return float(self.latencies[self.slowest]) \
            if self.finish_times.size else 0.0


def _empty_profile() -> StepProfile:
    return StepProfile(pairs=(), finish_times=np.zeros(0),
                       latencies=np.zeros(0))


class _CompiledPattern:
    """Routed structure of one ``(src, dst)`` step pattern."""

    __slots__ = ("batch", "latencies")

    def __init__(self, batch: CompiledFlowBatch,
                 latencies: np.ndarray) -> None:
        self.batch = batch
        self.latencies = latencies


def _node_id(x: Any) -> int:
    """``x`` as a node id: Python and numpy integers pass; a float, a
    bool or anything else raises instead of being truncated."""
    if isinstance(x, numbers.Integral) and not isinstance(x, bool):
        return int(x)
    raise SimulationError(f"flow node id must be an integer, got {x!r}")


def _triples(pairs: Iterable[Tuple[int, int, float]],
             ) -> List[Tuple[int, int, float]]:
    """``pairs`` as ``(int, int, float)`` triples, node ids checked."""
    return [(s if type(s) is int else _node_id(s),
             d if type(d) is int else _node_id(d), float(z))
            for s, d, z in pairs]


def _sorted_step(pairs: Iterable[Tuple[int, int, float]],
                 ) -> List[Tuple[int, int, float]]:
    """One step's transfers as sorted ``(src, dst, size)`` triples,
    every node id an integer and every size positive and finite."""
    step = _triples(pairs)
    step.sort()
    for s, d, z in step:
        if not 0 < z < inf:
            raise SimulationError(
                f"flow {s}->{d} size must be > 0 and finite, got {z!r}")
    return step


class FluidNetworkSimulator:
    """Simulates a batch of fluid flows over a :class:`Topology`.

    Parameters
    ----------
    topology:
        Provides links (capacities, latencies) and default routing.
    keep_trace:
        Record per-link utilization into :attr:`trace`.  Tracing
        disables the step-cache fast path (the trace needs the real
        byte counts), so traced runs always use the raw engine.

    Everything else is fixed: the pattern cache (LRU-bounded by
    :data:`DEFAULT_PATTERN_CACHE_SIZE`, admitting steps of at most
    :data:`DEFAULT_PATTERN_CACHE_MAX_FLOWS` flows), the compile cache
    of capacity-free :class:`~repro.simulation.flows.FlowBatchStructure`
    objects (same admission bound), the route memo, and the incidence
    backend, which
    :func:`~repro.simulation.flows.resolve_backend` picks per batch.
    None of them changes a result.  Substrates share the compile cache
    across same-shape simulators (:meth:`use_compile_cache`); the
    pattern cache is each simulator's own.
    """

    def __init__(self, topology: Topology, keep_trace: bool = False) -> None:
        self.topology = topology
        self.capacities: Dict[LinkId, float] = {
            l.ident: l.capacity for l in topology.links}
        self._latencies: Dict[LinkId, float] = {
            l.ident: l.latency for l in topology.links}
        self.trace: Optional[TraceRecorder] = (
            TraceRecorder(self.capacities) if keep_trace else None)
        self._pattern_cache = LruCache(
            DEFAULT_PATTERN_CACHE_SIZE,
            admit_cost_bound=DEFAULT_PATTERN_CACHE_MAX_FLOWS)
        self._compiled_patterns = LruCache(_COMPILED_PATTERN_MAX)
        self._compile_cache = LruCache(
            _COMPILED_PATTERN_MAX,
            admit_cost_bound=DEFAULT_PATTERN_CACHE_MAX_FLOWS)
        self._routes = LruCache(_ROUTE_CACHE_MAX)

    # -- flow construction ----------------------------------------------------

    def _route(self, src: int, dst: int) -> Tuple[Tuple[LinkId, ...], float]:
        """Memoized ``(link idents, path latency)`` per ``(src, dst)``.

        The one route memo over the topology's deterministic
        :meth:`~repro.topology.base.Topology.path`, storing exactly
        what the hot path needs.  The simulator snapshots
        capacities/latencies at construction, so — like those — it
        assumes the topology is not mutated under a live simulator.
        """
        key = (src, dst)
        route = self._routes.get(key)
        if route is None:
            path = tuple(l.ident for l in self.topology.path(src, dst))
            route = (path, sum(self._latencies[lid] for lid in path))
            self._routes.put(key, route)
        return route

    def make_flow(self, src: int, dst: int, size: float,
                  start_time: float = 0.0, tag: str = "") -> Flow:
        """Build a flow routed by the topology's deterministic routing
        (a node id that is not an integer raises, as in
        :meth:`step_profile`)."""
        if type(src) is not int or type(dst) is not int:
            src, dst = _node_id(src), _node_id(dst)
        path, latency = self._route(src, dst)
        flow = Flow(src=src, dst=dst, size=size, path=path,
                    latency=latency, tag=tag)
        flow.start_time = start_time
        return flow

    # -- simulation -------------------------------------------------------------

    def run(self, flows: Sequence[Flow],
            rate_log: Optional[List[Tuple[float, np.ndarray, np.ndarray]]]
            = None) -> List[FlowResult]:
        """Simulate ``flows`` to completion; returns per-flow results.

        The input list is consumed logically only — ``remaining`` fields
        are reset first so the same flow objects can be re-run.  When
        ``rate_log`` is a list, one ``(time, active_indices, rates)``
        entry is appended per allocation event (indices refer to the
        admission-sorted flow order) — the hook the property suite uses
        to validate every intermediate allocation.  A start time that
        is negative, infinite or NaN raises
        :class:`~repro.errors.SimulationError` before anything is
        solved.
        """
        if not flows:
            return []
        for f in flows:
            if not 0 <= f.start_time < inf:
                raise SimulationError(
                    f"flow {f.src}->{f.dst} start_time must be >= 0 and "
                    f"finite, got {f.start_time!r}")
            f.remaining = float(f.size)
            f.finish_time = float("nan")

        order = sorted(range(len(flows)),
                       key=lambda i: (flows[i].start_time, flows[i].src,
                                      flows[i].dst))
        batch_flows = [flows[i] for i in order]
        batch = compile_paths([f.path for f in batch_flows],
                              self.capacities)
        sizes = np.array([f.size for f in batch_flows], dtype=float)
        starts = np.array([f.start_time for f in batch_flows], dtype=float)
        lats = np.array([f.latency for f in batch_flows], dtype=float)

        completion, tx_times, final_rates = self._drive(
            batch, batch_flows, sizes, starts,
            trace=self.trace, rate_log=rate_log)

        results: List[FlowResult] = []
        for i in completion:
            f = batch_flows[i]
            f.remaining = 0.0
            f.rate = float(final_rates[i])
            f.finish_time = float(tx_times[i] + lats[i])
            results.append(FlowResult(
                src=f.src, dst=f.dst, size=f.size,
                start_time=f.start_time, finish_time=f.finish_time,
                tag=f.tag))
        return results

    def _drive(self, batch: CompiledFlowBatch,
               batch_flows: Optional[Sequence[Flow]],
               sizes: np.ndarray, starts: np.ndarray,
               trace: Optional[TraceRecorder] = None,
               rate_log: Optional[List] = None,
               ) -> Tuple[List[int], np.ndarray, np.ndarray]:
        """The vectorized event loop over a compiled batch.

        Flows must already be in admission order (ascending
        ``(start, src, dst)``).  Returns ``(completion_order,
        tx_finish_times, last_rates)`` where ``tx_finish_times`` are
        *transmission* completions (no latency).  ``batch_flows`` is
        only used to phrase error messages (``None`` for the
        pattern-cache path, where pairs name the flows).  Every
        allocation event is one from-zero :func:`progressive_fill`
        over the active flows.
        """
        n = batch.num_flows
        remaining = sizes.astype(float, copy=True)
        tx_times = np.full(n, np.nan)
        last_rates = np.zeros(n)
        active = np.zeros(n, dtype=bool)
        active_count = 0
        cursor = 0  # admission index into the sorted batch
        completion: List[int] = []
        now = 0.0
        guard = 0
        max_rounds = MAX_EVENT_ROUNDS_FACTOR * n + 8

        def flow_name(i: int) -> str:
            if batch_flows is not None:
                f = batch_flows[i]
                return f"{f.src}->{f.dst}"
            return f"#{i}"

        while cursor < n or active_count:
            guard += 1
            if guard > max_rounds:
                stuck = tuple(flow_name(i) for i in np.nonzero(active)[0])
                raise SimulationStallError(
                    f"fluid simulation failed to converge at t={now!r} "
                    f"({active_count} active, {n - cursor} pending; "
                    f"stuck flows: {', '.join(stuck) or '<none>'})",
                    now=now, stuck_flows=stuck)

            if not active_count:
                now = max(now, starts[cursor])
            # Admit everything that has started by `now`.
            while cursor < n and starts[cursor] <= now + 1e-18:
                i = cursor
                if batch.loopback[i]:
                    # Empty path: delivered instantly (the historical
                    # loop hung on these; see module docstring).
                    tx_times[i] = now
                    last_rates[i] = np.inf
                    completion.append(i)
                else:
                    active[i] = True
                    active_count += 1
                cursor += 1
            if not active_count:
                continue  # only loopbacks admitted; jump to next start

            rates = progressive_fill(batch, active)
            act_idx = np.nonzero(active)[0]
            act_rates = rates[act_idx]
            last_rates[act_idx] = act_rates

            if float(act_rates.min()) <= 0:
                i = act_idx[int(np.argmax(act_rates <= 0))]
                raise SimulationError(
                    f"flow {flow_name(i)} starved (rate 0)")

            # Earliest transmission completion among active flows.
            rem_act = remaining[act_idx]
            finish_dt = float((rem_act / act_rates).min())
            next_admit_dt = (starts[cursor] - now) if cursor < n else np.inf
            dt = min(finish_dt, next_admit_dt)
            if not np.isfinite(dt):
                raise SimulationError("no progress possible")

            if rate_log is not None:
                rate_log.append((now, act_idx.copy(), act_rates.copy()))

            if trace is not None:
                # Flow-major accumulation (np.add.at applies updates in
                # index order), matching the historical per-flow sums.
                sel = active[batch.flow_of]
                flat = batch.flow_links[sel]
                link_rates = np.zeros(batch.num_links)
                np.add.at(link_rates, flat, rates[batch.flow_of[sel]])
                touched = np.zeros(batch.num_links, dtype=bool)
                touched[flat] = True
                trace.record_interval(now, dt, {
                    batch.link_ids[j]: link_rates[j]
                    for j in np.nonzero(touched)[0]})

            # Advance time; drain progress.
            now += dt
            rem_act = rem_act - act_rates * dt
            remaining[act_idx] = rem_act
            done = act_idx[rem_act <= _EPS_BYTES]
            if done.size:
                remaining[done] = 0.0
                tx_times[done] = now
                active[done] = False
                active_count -= int(done.size)
                completion.extend(int(i) for i in done)

        return completion, tx_times, last_rates

    # -- pattern-keyed step cache -------------------------------------------

    def _compiled_pattern(self, pattern: Tuple[Tuple[int, int], ...],
                          ) -> _CompiledPattern:
        """Routed + compiled structure for a step pattern (memoized).

        Two layers: the per-simulator bound batch (pattern →
        :class:`_CompiledPattern`, capacities baked in) over the
        shareable capacity-free structure cache (pattern →
        :class:`~repro.simulation.flows.FlowBatchStructure`, keyed per
        topology shape).  A structure hit skips routing and the
        Python-side compile loop entirely — only the bind (capacity
        vector + latency sums) runs per simulator.
        """
        compiled = self._compiled_patterns.get(pattern)
        if compiled is None:
            structure = self._compile_cache.get(pattern)
            if structure is None:
                structure = compile_structure(
                    [self._route(src, dst)[0] for src, dst in pattern])
                # Admission policy: enormous patterns are compiled but
                # not memoized (`skipped` counts them).
                self._compile_cache.put(pattern, structure,
                                        cost=len(pattern))
            compiled = _CompiledPattern(
                batch=structure.bind(self.capacities),
                latencies=structure.path_latencies(self._latencies))
            self._compiled_patterns.put(pattern, compiled)
        return compiled

    @staticmethod
    def _canon_step(pairs: Iterable[Tuple[int, int, float]],
                    ) -> Optional[Tuple[Tuple, float]]:
        """Canonical ``(cache key, reference size)`` of one step.

        The step is sorted by ``(src, dst, size)``; the key is the pair
        pattern plus the sizes normalized by the largest transfer (the
        max-min dynamics depend only on those ratios).  ``None`` for an
        empty step.
        """
        step = _sorted_step(pairs)
        if not step:
            return None
        pattern = tuple((s, d) for s, d, _ in step)
        sizes = np.array([z for _, _, z in step], dtype=float)
        s_ref = float(sizes.max())
        ratios = sizes / s_ref
        return (pattern, tuple(ratios)), s_ref

    def _profile_for(self, key: Tuple, s_ref: float) -> StepProfile:
        """Solve (or fetch) one canonical step and rescale it."""
        pattern, ratios = key
        compiled = self._compiled_pattern(pattern)
        tx_hat = self._pattern_cache.get(key)
        if tx_hat is None:
            _, tx_hat, _ = self._drive(
                compiled.batch, None,
                np.asarray(ratios, dtype=float),
                np.zeros(len(pattern)))
            # Admission policy: enormous steps are solved but not
            # memoized (`skipped` counts them).
            self._pattern_cache.put(key, tx_hat, cost=len(pattern))
        finish = tx_hat * s_ref + compiled.latencies
        return StepProfile(pairs=pattern, finish_times=finish,
                           latencies=compiled.latencies)

    def step_profile(self, pairs: Iterable[Tuple[int, int, float]]
                     ) -> StepProfile:
        """Solved timing of a synchronous step of concurrent transfers.

        The step is canonicalized (sorted by ``(src, dst, size)``) and
        solved through the pattern cache: the max-min dynamics of a
        step depend only on the pair pattern and the *relative* sizes,
        so the normalized transmission times are memoized under
        ``(pattern, size-ratios)`` and rescaled by the step's largest
        transfer.  Both the miss and the hit path go through the same
        normalization, so results never depend on cache history.  A
        node id that is not an integer, or a size that is not positive
        and finite, raises :class:`~repro.errors.SimulationError`
        before anything is solved (this holds for every step entry
        point).
        """
        canon = self._canon_step(pairs)
        if canon is None:
            return _empty_profile()
        return self._profile_for(*canon)

    def step_time(self, pairs: Iterable[Tuple[int, int, float]]) -> float:
        """Makespan of a synchronous step of concurrent transfers."""
        if self.trace is not None:
            results = self.run_pairs(pairs)
            return max((r.finish_time for r in results), default=0.0)
        return self.step_profile(pairs).makespan

    def run_schedule(self, steps: Sequence[Iterable[Tuple[int, int, float]]]
                     ) -> List[StepProfile]:
        """Fused whole-schedule execution: one profile per step.

        All steps are canonicalized up front — identical *consecutive*
        steps reuse the previous step's normalized key outright (ring
        and torus schedules repeat one pattern 2(N-1) times in a row) —
        then each distinct ``(pattern, ratios, scale)`` is solved
        exactly once and its :class:`StepProfile` shared across
        repeats, eliminating the per-step compile and Python dispatch
        the per-step path pays.  For cache-admitted patterns the
        counters advance exactly as the per-step path would (repeats
        still probe), so warm/cold observability is unchanged; an
        admission-*skipped* pattern is solved once per schedule rather
        than once per repeat, so its ``skipped`` count advances once
        (the per-step path re-solves and re-skips every repeat).
        Traced simulators fall back to the raw engine per step (the
        trace needs real byte accounting).
        """
        steps = list(steps)
        if self.trace is not None:
            return [self._raw_profile(step) for step in steps]

        # Pass 1: canonicalize, hoisting the key of repeated steps.
        entries: List[Optional[Tuple[Tuple, float]]] = []
        prev_raw: Optional[List[Tuple[int, int, float]]] = None
        prev_entry: Optional[Tuple[Tuple, float]] = None
        for step in steps:
            raw = _triples(step)
            if prev_raw is not None and raw == prev_raw:
                entries.append(prev_entry)
                continue
            prev_raw = raw
            prev_entry = self._canon_step(raw)
            entries.append(prev_entry)

        # Pass 2: solve each distinct (key, scale) once; share profiles.
        made: Dict[Tuple, StepProfile] = {}
        profiles: List[StepProfile] = []
        for entry in entries:
            if entry is None:
                profiles.append(_empty_profile())
                continue
            prof = made.get(entry)
            if prof is None:
                prof = self._profile_for(*entry)
                made[entry] = prof
            else:
                # Counter/LRU parity with the per-step path: a repeat
                # is a cache probe there, so it is one here too.
                self._pattern_cache.get(entry[0])
            profiles.append(prof)
        return profiles

    def step_time_many(self, steps: Sequence[Iterable[Tuple[int, int, float]]]
                       ) -> List[float]:
        """Makespans of a whole schedule's synchronous steps.

        The batch entry point substrates use; see :meth:`run_schedule`
        for the fused execution it rides on.
        """
        if self.trace is not None:
            return [self.step_time(step) for step in steps]
        return [p.makespan for p in self.run_schedule(steps)]

    def _raw_profile(self, pairs: Iterable[Tuple[int, int, float]]
                     ) -> StepProfile:
        """A step profile through the raw (traced) engine."""
        step = _sorted_step(pairs)
        if not step:
            return _empty_profile()
        flows = [self.make_flow(s, d, z) for s, d, z in step]
        self.run(flows)
        finish = np.array([f.finish_time for f in flows])
        lats = np.array([f.latency for f in flows])
        return StepProfile(pairs=tuple((s, d) for s, d, _ in step),
                           finish_times=finish, latencies=lats)

    # -- cache management ---------------------------------------------------

    def pattern_cache_info(self) -> CacheStats:
        """Current pattern-cache counters."""
        return self._pattern_cache.stats()

    def clear_pattern_cache(self) -> None:
        """Drop memoized rate schedules, compiled patterns and
        compiled structures."""
        self._pattern_cache.clear()
        self._compile_cache.clear()
        self._compiled_patterns.clear()

    def compile_cache_info(self) -> CacheStats:
        """Current compile-cache counters."""
        return self._compile_cache.stats()

    @property
    def compile_cache(self) -> LruCache:
        """The live compiled-structure cache."""
        return self._compile_cache

    def use_compile_cache(self, cache: LruCache) -> None:
        """Adopt ``cache`` as this simulator's compile cache.

        Substrates share one cache object between simulators whose
        topologies have the same
        :meth:`~repro.topology.base.Topology.shape_signature` —
        capacities and latencies excluded, because routed structures
        are pure functions of which links exist — so every
        bandwidth/latency variant of one topology shares the entries
        (the bind step applies each simulator's own capacities).
        """
        self._compile_cache = cache

    # -- conveniences -------------------------------------------------------------

    def run_pairs(self, pairs: Iterable[Tuple[int, int, float]],
                  start_time: float = 0.0) -> List[FlowResult]:
        """Simulate ``(src, dst, size)`` tuples all starting together."""
        flows = [self.make_flow(s, d, z, start_time) for s, d, z in pairs]
        return self.run(flows)
