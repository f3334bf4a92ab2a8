"""Frozen pre-refactor fluid engine — the parity oracle.

This module is a verbatim copy of the per-event implementation that
:mod:`repro.simulation.flows` / :mod:`repro.simulation.fluid` shipped
before the incremental engine rewrite: ``max_min_fair_rates`` rebuilt
the link index and the links x flows incidence matrix in Python loops at
*every* flow admission/completion event, and the event loop popped the
sorted pending list with ``pop(0)``.

It exists for two reasons and must not be "improved":

* the property-based parity suite asserts the incremental engine
  reproduces this implementation **bit-for-bit** (same rates, same
  event times, same results order);
* ``benchmarks/test_bench_fluid.py`` measures the incremental engine's
  speedup against it, which is the number recorded in
  ``BENCH_fluid.json`` and gated by CI.

It lives with the other test-side references, outside the library.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.simulation.flows import Flow, LinkId
from repro.topology.base import Topology

#: Bytes of slack below which a flow counts as finished (guards float error).
_EPS_BYTES = 1e-9


def reference_max_min_fair_rates(
    flows: Sequence[Flow],
    capacities: Dict[LinkId, float],
) -> np.ndarray:
    """The pre-refactor solver: per-call index + incidence rebuild."""
    n = len(flows)
    rates = np.zeros(n)
    if n == 0:
        return rates

    # Collect the links actually used; ignore idle ones.
    used_links: List[LinkId] = []
    index_of: Dict[LinkId, int] = {}
    for f in flows:
        for lid in f.path:
            if lid not in index_of:
                if lid not in capacities:
                    raise SimulationError(f"flow crosses unknown link {lid!r}")
                index_of[lid] = len(used_links)
                used_links.append(lid)

    loopback = np.array([len(f.path) == 0 for f in flows])
    if not used_links:
        rates[:] = np.inf
        return rates

    m = len(used_links)
    # Incidence: A[l, f] = 1 iff flow f crosses link l.
    inc = np.zeros((m, n), dtype=bool)
    for j, f in enumerate(flows):
        for lid in f.path:
            inc[index_of[lid], j] = True

    cap = np.array([capacities[lid] for lid in used_links], dtype=float)
    if np.any(cap <= 0):
        raise SimulationError("link capacities must be positive")

    residual = cap.copy()
    active = ~loopback  # flows still being filled
    rates[loopback] = np.inf

    # Progressive filling: at most one link saturates per round, so the
    # loop runs at most m times.
    for _ in range(m + 1):
        # NB: cast before matmul — bool @ bool would OR, not count.
        counts = inc @ active.astype(np.float64)  # active flows per link
        hot = counts > 0
        if not np.any(hot):
            break
        fair = np.full(m, np.inf)
        fair[hot] = residual[hot] / counts[hot]
        bottleneck = float(fair.min())
        if not np.isfinite(bottleneck):  # pragma: no cover - defensive
            break
        # Grant the increment to every active flow.
        rates[active] += bottleneck
        residual -= counts * bottleneck
        residual = np.maximum(residual, 0.0)
        # Freeze flows on saturated links.
        saturated = hot & (fair <= bottleneck + 1e-15)
        frozen = np.any(inc[saturated][:, :], axis=0) & active
        if not np.any(frozen):  # pragma: no cover - defensive
            break
        active = active & ~frozen
        if not np.any(active):
            break
    else:  # pragma: no cover - defensive
        raise SimulationError("progressive filling failed to converge")

    return rates


class ReferenceFluidSimulator:
    """The pre-refactor :class:`FluidNetworkSimulator` event loop.

    Returns plain ``(src, dst, size, start_time, finish_time, tag)``
    tuples (the fields of ``FlowResult``) so the oracle carries no
    dependency on the live result class.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.capacities: Dict[LinkId, float] = {
            l.ident: l.capacity for l in topology.links}
        self._latencies: Dict[LinkId, float] = {
            l.ident: l.latency for l in topology.links}

    def make_flow(self, src: int, dst: int, size: float,
                  start_time: float = 0.0, tag: str = "") -> Flow:
        """Build a flow routed by the topology's deterministic routing."""
        path = tuple(l.ident for l in self.topology.path(src, dst))
        latency = sum(self._latencies[lid] for lid in path)
        flow = Flow(src=src, dst=dst, size=size, path=path,
                    latency=latency, tag=tag)
        flow.start_time = start_time
        return flow

    def run(self, flows: Sequence[Flow]
            ) -> List[Tuple[int, int, float, float, float, str]]:
        """The original O(events x rebuild) loop, verbatim."""
        for f in flows:
            f.remaining = float(f.size)
            f.finish_time = float("nan")

        pending = sorted(flows, key=lambda f: (f.start_time, f.src, f.dst))
        active: List[Flow] = []
        results: List[Tuple[int, int, float, float, float, str]] = []
        now = 0.0
        guard = 0
        max_rounds = 4 * len(flows) + 8

        while pending or active:
            guard += 1
            if guard > max_rounds:
                raise SimulationError(
                    "fluid simulation failed to converge "
                    f"({len(active)} active, {len(pending)} pending)")

            if not active:
                now = max(now, pending[0].start_time)
            # Admit everything that has started by `now`.
            while pending and pending[0].start_time <= now + 1e-18:
                active.append(pending.pop(0))

            rates = reference_max_min_fair_rates(active, self.capacities)
            for f, r in zip(active, rates):
                f.rate = float(r)

            # Earliest transmission completion among active flows.
            finish_dt = np.inf
            for f in active:
                if f.rate <= 0:
                    raise SimulationError(
                        f"flow {f.src}->{f.dst} starved (rate 0)")
                finish_dt = min(finish_dt, f.remaining / f.rate)
            next_admit_dt = (pending[0].start_time - now) if pending else np.inf
            dt = min(finish_dt, next_admit_dt)
            if not np.isfinite(dt):
                raise SimulationError("no progress possible")

            # Advance time; drain progress.
            now += dt
            still_active: List[Flow] = []
            for f in active:
                f.remaining -= f.rate * dt
                if f.remaining <= _EPS_BYTES:
                    f.remaining = 0.0
                    f.finish_time = now + f.latency
                    results.append((f.src, f.dst, f.size, f.start_time,
                                    f.finish_time, f.tag))
                else:
                    still_active.append(f)
            active = still_active

        return results

    def run_pairs(self, pairs: Iterable[Tuple[int, int, float]],
                  start_time: float = 0.0
                  ) -> List[Tuple[int, int, float, float, float, str]]:
        """Simulate ``(src, dst, size)`` tuples all starting together."""
        flows = [self.make_flow(s, d, z, start_time) for s, d, z in pairs]
        return self.run(flows)

    def step_time(self, pairs: Iterable[Tuple[int, int, float]]) -> float:
        """Makespan of a synchronous step of concurrent transfers."""
        results = self.run_pairs(pairs)
        return max((r[4] for r in results), default=0.0)
