"""Exactness and work bounds of the optical ring's step memo.

:meth:`OpticalRingSubstrate.run_step` memoizes each step pattern's
longest-arc-first order and path demand, caches each RWA solution with
the step's MRR selection and timing constants, and retunes only the
banks whose selection changes (:meth:`OpticalRingNetwork.retune`).
These tests pin that all of it is a shortcut, never an approximation:
on random placed schedules, striping modes, policies, cache bounds,
ring directions and fault plans, every step outcome, every
bank's selection after every step, every report and every
``describe()`` counter compare ``==`` to the pre-memo step path, kept
verbatim below.  A warm step on a large ring also makes at most a few
bank retunes per transfer, however many nodes the ring has.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.collectives.halving_doubling import generate_halving_doubling
from repro.collectives.placement import place_schedule
from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.collectives.schedule import Schedule, Transfer, TransferOp
from repro.collectives.wrht import WrhtParameters, generate_wrht
from repro.config import (HierarchicalSystem, OpticalRingSystem, Workload,
                          default_optical)
from repro.core.substrates import optical_ring
from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import (OpticalRingSubstrate,
                                                OpticalStepOutcome)
from repro.errors import (ConfigurationError, ReproError,
                          WavelengthAllocationError)
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.optical.link import WaveguideLink
from repro.optical.ring_network import OpticalRingNetwork
from repro.optical.rwa import (AssignmentPolicy, RwaDelta, TransferRequest,
                               assign_wavelengths, assign_wavelengths_delta,
                               compute_striping_factor)
from ring_references import BankedTuning


# ---------------------------------------------------------------------------
# the pre-memo step path
# ---------------------------------------------------------------------------


class ReferenceRingSubstrate(OpticalRingSubstrate):
    """The ring substrate with the pre-memo ``run_step``/``_assign``.

    It takes the step as ``run_step`` does, as ``(src, dst, hint)``
    hints and byte sizes, and turns them into the per-transfer requests
    the pre-memo path worked on.  It tunes a per-bank model of each
    network (:class:`BankedTuning`) instead of the network's own
    selection.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.tuning: Dict[OpticalRingNetwork, BankedTuning] = {}

    def _network(self, system: OpticalRingSystem) -> OpticalRingNetwork:
        # Every caller resets the network it fetches before the first
        # step, so the per-bank model starts detuned here too.
        net = super()._network(system)
        self.tuning[net] = BankedTuning(system)
        return net

    def tuning_state(self, net: OpticalRingNetwork) -> Dict:
        """The per-bank model's tuned banks."""
        return self.tuning[net].state()

    def run_step(self, net: OpticalRingNetwork, system: OpticalRingSystem,
                 policy: AssignmentPolicy, striping,
                 hints: Sequence[Tuple], sizes: Sequence[float],
                 ) -> OpticalStepOutcome:
        base_requests = [TransferRequest(
            src=src, dst=dst, size=size,
            direction=optical_ring._hint_direction(hint))
            for (src, dst, hint), size in zip(hints, sizes)]
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
        tuning = self.tuning[net].retune(tx, rx)

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
        key = self._signature(system, policy, base_requests, k)
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
            k_final, rwa = hit
            requests = [
                TransferRequest(src=r.src, dst=r.dst, size=r.size,
                                direction=r.direction,
                                num_wavelengths=k_final)
                for r in base_requests]
            return k_final, requests, rwa

        prev = net.rwa_delta
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
        # Admission policy: very large steps are solved but not memoized
        # (`rwa_cache_skipped` counts them).
        self._cache.put(key, (k, rwa), cost=len(base_requests))
        return k, requests, rwa


# ---------------------------------------------------------------------------
# recording harness
# ---------------------------------------------------------------------------


class _Recording:
    """Records each step's outcome and the tuning state after it."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.trace: List[Tuple] = []

    def run_step(self, net, system, policy, striping, hints, sizes):
        out = super().run_step(net, system, policy, striping, hints, sizes)
        self.trace.append((out, self.tuning_state(net)))
        return out


class MemoRing(_Recording, OpticalRingSubstrate):
    @staticmethod
    def tuning_state(net: OpticalRingNetwork) -> Dict:
        """The network's installed selection."""
        return dict(net._selection)


class RefRing(_Recording, ReferenceRingSubstrate):
    pass


def _bounded(bounds):
    """Patch the ring's memo bounds ``(entries, admitted transfers)``
    while substrates are built (the substrate reads them at
    construction)."""
    size, max_transfers = bounds
    return mock.patch.multiple(
        optical_ring, DEFAULT_RWA_CACHE_SIZE=size,
        DEFAULT_RWA_CACHE_MAX_TRANSFERS=max_transfers)


def _outcome(call):
    """``call()``'s comparable result: the report (or faulty run), or
    the raised library error's type and message."""
    try:
        return "ok", call()
    except ReproError as exc:
        return type(exc).__name__, str(exc)


# ---------------------------------------------------------------------------
# differential
# ---------------------------------------------------------------------------


KINDS = ("ring", "recursive-doubling", "halving-doubling", "wrht",
         "random")
POLICIES = list(AssignmentPolicy)
STRIPINGS = ("auto", "off", 1, 2, 3)


@st.composite
def random_schedules(draw, n: int, bidirectional: bool):
    """Steps of random arcs: mixed sizes, repeated pairs, any hints."""
    hints = (None, "cw", "ccw") if bidirectional else (None, "cw")
    sched = Schedule(num_nodes=n, num_chunks=4, name="random")
    for _ in range(draw(st.integers(1, 4))):
        transfers = []
        for _ in range(draw(st.integers(1, 6))):
            src = draw(st.integers(0, n - 1))
            dst = draw(st.integers(0, n - 2))
            transfers.append(Transfer(
                src=src, dst=dst + (dst >= src),
                chunks=range(draw(st.integers(1, 4))),
                op=TransferOp.REDUCE,
                direction_hint=draw(st.sampled_from(hints))))
        sched.add_step(transfers)
    return sched


def _schedule(kind: str, ranks: int, w: int):
    if kind == "ring":
        return generate_ring_allreduce(ranks)
    if kind == "recursive-doubling":
        return generate_recursive_doubling(ranks)
    if kind == "halving-doubling":
        return generate_halving_doubling(ranks)
    sched, _ = generate_wrht(WrhtParameters(
        num_nodes=ranks, group_size=min(3, ranks) if ranks > 2 else 2,
        num_wavelengths=max(w, 2)))
    return sched


@st.composite
def fault_plans(draw, n: int, w: int):
    """``None`` or a few link, node and wavelength faults (and repairs)."""
    if draw(st.booleans()):
        return None
    times = st.sampled_from((0.0, 1e-6, 2e-5, 1e-4, 1e-3))
    events = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("link", "wave", "wave", "node")))
        up = draw(st.booleans()) and bool(events)
        t = draw(times)
        if kind == "link":
            u = draw(st.integers(0, n - 1))
            events.append(FaultEvent(
                t, FaultKind.LINK_UP if up else FaultKind.LINK_DOWN,
                link=(u, (u + 1) % n)))
        elif kind == "node":
            events.append(FaultEvent(
                t, FaultKind.NODE_UP if up else FaultKind.NODE_DOWN,
                node=draw(st.integers(0, n - 1))))
        else:
            events.append(FaultEvent(
                t, FaultKind.WAVELENGTH_UP if up
                else FaultKind.WAVELENGTH_DOWN,
                wavelength=draw(st.integers(0, w - 1))))
    return FaultPlan(tuple(events))


@st.composite
def ring_calls(draw, n: int, w: int, bidirectional: bool):
    """One ``execute``/``execute_with_faults`` call on an ``n``-ring."""
    kind = draw(st.sampled_from(
        KINDS if bidirectional else KINDS[:3] + KINDS[4:]))
    if kind == "random":
        sched = draw(random_schedules(n, bidirectional))
    else:
        ranks = draw(st.integers(2, min(n, 8)))
        nodes = sorted(draw(st.lists(st.integers(0, n - 1),
                                     min_size=ranks, max_size=ranks,
                                     unique=True)))
        sched = place_schedule(_schedule(kind, ranks, w), nodes, n)
    data = draw(st.floats(1e3, 1e8, allow_nan=False))
    striping = draw(st.sampled_from((None,) + STRIPINGS))
    policy = draw(st.sampled_from([None] + POLICIES))
    return sched, Workload(data_bytes=data), striping, policy, \
        draw(fault_plans(n, w))


def _run_call(sub, call):
    sched, wl, striping, policy, plan = call
    opts = {}
    if striping is not None:
        opts["striping"] = striping
    if policy is not None:
        opts["policy"] = policy
    if plan is None:
        return _outcome(lambda: sub.execute(sched, wl, **opts))
    return _outcome(lambda: sub.execute_with_faults(sched, wl, plan, **opts))


@st.composite
def ring_scenarios(draw):
    n = draw(st.integers(4, 16))
    w = draw(st.sampled_from((2, 3, 4, 8)))
    derived = draw(st.booleans())
    bidirectional = derived or draw(st.booleans())
    system = None if derived else OpticalRingSystem(
        num_nodes=n, num_wavelengths=w, bidirectional=bidirectional,
        allow_striping=draw(st.sampled_from((True, True, False))))
    settings_ = dict(
        policy=draw(st.sampled_from(POLICIES)),
        striping=draw(st.sampled_from(STRIPINGS)))
    bounds = (draw(st.sampled_from((1, 4, 4096))),
              draw(st.sampled_from((None, 3, 1024))))
    calls = draw(st.lists(ring_calls(n, w, bidirectional), min_size=1,
                          max_size=3))
    if derived:
        # A default system per schedule size: replay the same step
        # patterns on a larger ring through the same substrate.
        calls += [(place_schedule(sched, range(n), n + 3), *rest)
                  for sched, *rest in calls]
    # Replay the calls so warm caches and carried tuning state are hit.
    return system, settings_, bounds, calls + calls


def _assert_same_runs(memo, ref, calls) -> None:
    for call in calls:
        got = _run_call(memo, call)
        want = _run_call(ref, call)
        assert got == want
        assert memo.trace == ref.trace
        assert memo.describe() == ref.describe()
        assert memo.rwa_cache_info() == ref.rwa_cache_info()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ring_scenarios())
def test_ring_steps_match_pre_memo_path(scenario):
    system, settings_, bounds, calls = scenario
    with _bounded(bounds):
        memo = MemoRing(system, **settings_)
        ref = RefRing(system, **settings_)
    _assert_same_runs(memo, ref, calls)


@st.composite
def hier_scenarios(draw):
    racks = draw(st.integers(2, 6))
    group = draw(st.integers(1, 3))
    n = racks * group
    w = draw(st.sampled_from((2, 4, 8)))
    bidirectional = draw(st.booleans())
    system = HierarchicalSystem(num_nodes=n, group_size=group,
                                num_wavelengths=w,
                                bidirectional=bidirectional)
    settings_ = dict(
        policy=draw(st.sampled_from(POLICIES)),
        striping=draw(st.sampled_from(STRIPINGS)))
    calls = []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            KINDS if bidirectional else KINDS[:3] + KINDS[4:]))
        sched = (draw(random_schedules(n, bidirectional))
                 if kind == "random" else _schedule(kind, n, w))
        calls.append((sched, Workload(data_bytes=draw(st.floats(1e3, 1e8))),
                      draw(st.sampled_from((None,) + STRIPINGS)), None,
                      draw(fault_plans(n, w))))
    return system, settings_, calls + calls


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(hier_scenarios())
def test_hier_leader_steps_match_pre_memo_path(scenario):
    system, settings_, calls = scenario
    memo = HierarchicalRackSubstrate(system, **settings_)
    ref = HierarchicalRackSubstrate(system, **settings_)
    memo._ring = MemoRing(**settings_)
    ref._ring = RefRing(**settings_)
    for call in calls:
        assert _run_call(memo, call) == _run_call(ref, call)
        assert memo._ring.trace == ref._ring.trace
        assert memo.describe() == ref.describe()


# ---------------------------------------------------------------------------
# memo bounds
# ---------------------------------------------------------------------------


def test_pattern_memo_shares_the_cache_bounds():
    wl = Workload(data_bytes=1e6)
    sched = generate_recursive_doubling(8)  # 3 distinct 8-transfer steps
    system = default_optical(8)
    size = optical_ring.DEFAULT_RWA_CACHE_SIZE
    admit = optical_ring.DEFAULT_RWA_CACHE_MAX_TRANSFERS
    for bounds, entries in (((2, admit), 2), ((size, 7), 0),
                            ((size, admit), 3)):
        with _bounded(bounds):
            sub = OpticalRingSubstrate(system)
        sub.execute(sched, wl)
        assert len(sub._patterns) == entries, bounds
        assert len(sub._cache) == entries, bounds
    sub.clear_rwa_cache()
    assert len(sub._patterns) == len(sub._cache) == 0


def test_pattern_memo_keys_on_the_ring():
    """The same hints order and load differently on rings of two sizes
    (0->3 is one hop counter-clockwise on 4 nodes, three clockwise on
    8), and one substrate serving both must tell them apart."""
    step = Schedule(num_nodes=4, num_chunks=1, name="fan-out")
    step.add_step(Transfer(src=0, dst=d, chunks=range(1),
                           op=TransferOp.REDUCE) for d in (1, 2, 3))
    wide = place_schedule(step, range(4), 8)
    wl = Workload(data_bytes=1e6)
    for striping in ("off", "auto"):
        memo, ref = MemoRing(striping=striping), RefRing(striping=striping)
        _assert_same_runs(memo, ref, [(step, wl, None, None, None),
                                      (wide, wl, None, None, None)])


# ---------------------------------------------------------------------------
# work bound
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("generator", [generate_ring_allreduce,
                                       generate_recursive_doubling],
                         ids=["ring", "recursive-doubling"])
def test_warm_step_retunes_once_and_touches_no_per_node_state(
        monkeypatch, generator):
    """A warm step of a 4-rank collective on a 1024-node ring makes one
    :meth:`OpticalRingNetwork.retune` call and touches no waveguide
    segment, the only state the network keeps per node."""
    n = 1024
    sched = place_schedule(generator(4), (100, 101, 102, 103), n)
    wl = Workload(data_bytes=1e6)
    system = default_optical(n, num_wavelengths=64)
    sub = OpticalRingSubstrate(system)
    cold = sub.execute(sched, wl)
    net = sub._network(system)
    ring_sized = {name for name, value in vars(net).items()
                  if isinstance(value, (dict, list, tuple, set, frozenset))
                  and len(value) >= n}
    assert ring_sized == {"_links"}

    calls = {"retune": 0, "segment": 0}
    in_step = [False]
    run_step = OpticalRingSubstrate.run_step
    retune = OpticalRingNetwork.retune

    def step(self, *args):
        in_step[0] = True
        try:
            return run_step(self, *args)
        finally:
            in_step[0] = False

    def counted_retune(self, selection):
        calls["retune"] += 1
        return retune(self, selection)

    def segment_method(method):
        def counted(self, *args):
            calls["segment"] += in_step[0]
            return method(self, *args)
        return counted

    monkeypatch.setattr(OpticalRingSubstrate, "run_step", step)
    monkeypatch.setattr(OpticalRingNetwork, "retune", counted_retune)
    for name in ("is_free", "free_wavelengths", "occupied_count", "occupy",
                 "release", "release_owner", "clear", "owners"):
        monkeypatch.setattr(WaveguideLink, name,
                            segment_method(getattr(WaveguideLink, name)))
    warm = sub.execute(sched, wl)
    assert warm == cold
    assert calls == {"retune": len(sched.steps), "segment": 0}
