"""Exactness and work bounds of the per-call OCS step memo.

:func:`~repro.topology.program.synthesize_program` and the substrate's
static/reconfigure loop intern a schedule's steps once per call and
price each distinct (step matrix, circuit config) once, through one
:class:`~repro.topology.program.StepPricer`.  These tests pin that the
memo is a shortcut, never an approximation: on schedules built from a
few repeated step matrices, the memoized planners return objects that
compare ``==`` to per-step reference implementations (the DP below is
the pre-memo synthesizer, kept verbatim; the loop below is the
substrate's pre-memo greedy loop), and the stay cost is evaluated at
most once per distinct (step, config).
"""

from __future__ import annotations

from typing import Dict, List, Tuple
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import default_ocs
from repro.core.substrates.base import ExecutionReport, StepReport
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.errors import ConfigurationError, TopologyError
import repro.topology.program as ocs_program
from repro.topology.program import (OPTIMAL_DECOMPOSITION_LIMIT,
                                    CircuitConfig, CircuitPair,
                                    SynthesizedProgram, SynthesizedStep,
                                    TopologyProgram, _default_stay_cost,
                                    decompose_demand, degree_counts,
                                    demand_aware_boot_config, intern_steps,
                                    max_pair_degree, price_demand_rounds,
                                    ring_circuit_config,
                                    stripe_round_serialization,
                                    synthesize_program)

N = 8
INF = float("inf")

#: The two alternating matchings of ``TestAmortisation`` in
#: ``test_program_synthesis.py``.
A = {(0, 2): 1e7, (1, 3): 1e7, (4, 6): 1e7, (5, 7): 1e7}
B = {(2, 4): 1e7, (3, 5): 1e7, (6, 0): 1e7, (7, 1): 1e7}


def ocs(**kw):
    return default_ocs(N).with_(**kw)


# ---------------------------------------------------------------------------
# per-step references
# ---------------------------------------------------------------------------


def _reference_synthesize_program(
        schedule_demands: Sequence[Mapping[CircuitPair, float]],
        system, *,
        initial: InitialSpec = None,
        stay_cost: Optional[StayCost] = None,
        decompose: Optional[Decompose] = None,
        stripe_leftover: bool = False,
        beam_width: int = 8,
        horizon: int = 4) -> SynthesizedProgram:
    """Plan a whole-schedule circuit program by dynamic programming.

    ``schedule_demands`` is one ``{(src, dst): bytes}`` mapping per
    synchronous step; ``system`` is any object with the OCS fabric
    attributes (``num_nodes``, ``ports_per_node``, ``circuit_rate``,
    ``circuit_latency``, ``reconfiguration_delay``, ``step_overhead``,
    ``can_reconfigure``).

    The DP state is the live :class:`CircuitConfig`; per step each
    frontier state branches three ways:

    * **stay** — serve on the live circuits (fluid makespan via
      ``stay_cost``);
    * **rounds** — reconfigure through the demand decomposition's
      rounds (:func:`price_demand_rounds`, evolving live set);
    * **install** — pay one reconfiguration for a *future-profitable*
      config: a port-feasible union of this and the next steps'
      demands (``horizon``-bounded prefix unions), serving every pair
      on a direct circuit — later steps covered by the union then stay
      for free, amortising the delay.

    The frontier is beam-pruned to ``beam_width`` states, but the
    greedy per-step trajectory is simulated alongside **with identical
    arithmetic** and force-merged into the frontier every step, so
    ``total_time <= greedy_time`` holds on every schedule by
    construction — never worse than the myopic policy, bit-for-bit
    equal where greedy is already optimal (``delay=0`` matchings) and
    trivially at ``delay=inf`` (no reconfiguration branches exist).

    ``initial`` seeds the DP's boot state: a config, ``"ring"``/
    ``None`` (the static ring), or ``"demand"``
    (:func:`demand_aware_boot_config` over the aggregate demand).
    ``stripe_leftover`` prices rounds/installs with
    :func:`stripe_round_serialization` (cost model only, default off;
    the greedy shadow never stripes).
    """
    ports = system.ports_per_node
    rate = system.circuit_rate
    latency = system.circuit_latency
    delay = system.reconfiguration_delay
    overhead = system.step_overhead
    can_reconf = system.can_reconfigure
    inf = float("inf")

    demands = [dict(d) for d in schedule_demands]
    ordered_steps = [tuple(sorted(d, key=lambda p: (-d[p], p)))
                     for d in demands]

    if initial is None or initial == "ring":
        start = ring_circuit_config(system.num_nodes,
                                    bidirectional=ports >= 2)
    elif initial == "demand":
        agg: Dict[CircuitPair, float] = {}
        for sizes in demands:
            for p, b in sizes.items():
                agg[p] = agg.get(p, 0.0) + b
        start = demand_aware_boot_config(agg, system.num_nodes, ports)
    elif isinstance(initial, CircuitConfig):
        start = initial
    else:
        raise TopologyError(
            f"initial must be 'ring', 'demand' or a CircuitConfig, "
            f"got {initial!r}")
    start.validate(system.num_nodes, ports)

    if stay_cost is None:
        stay_cost = _default_stay_cost(system)
    if decompose is None:
        decompose = lambda o, p: decompose_demand(o, p)  # noqa: E731

    # Install candidates per step: unions of this and the next steps'
    # demand pairs, extended while they stay port-feasible.  Installing
    # one once lets every covered step stay for free afterwards.
    num_steps = len(demands)
    pair_sets = [frozenset(o) for o in ordered_steps]
    candidates: List[List[CircuitConfig]] = []
    for t in range(num_steps):
        cands: List[CircuitConfig] = []
        acc: set = set()
        for u in range(t, min(num_steps, t + horizon)):
            acc |= pair_sets[u]
            if not acc or max_pair_degree(acc) > ports:
                break
            cfg = CircuitConfig.of(acc)
            if not cands or cands[-1] != cfg:
                cands.append(cfg)
        candidates.append(cands)

    def price(rounds, sizes, cfg, striped):
        return price_demand_rounds(
            rounds, sizes, cfg, circuit_rate=rate, circuit_latency=latency,
            reconfiguration_delay=delay, stripe_leftover=striped,
            ports_per_node=ports)

    #: config -> (cumulative cost, path of SynthesizedSteps)
    frontier: Dict[CircuitConfig, Tuple[float, Tuple[SynthesizedStep, ...]]]
    frontier = {start: (0.0, ())}
    greedy_cfg, greedy_cost = start, 0.0
    greedy_steps: List[SynthesizedStep] = []
    greedy_reconfigs = 0

    for t in range(num_steps):
        sizes = demands[t]
        ordered = ordered_steps[t]
        rounds = decompose(ordered, ports) if ordered else []

        stay_memo: Dict[CircuitConfig, Tuple[float, float]] = {}

        def stay_of(cfg):
            got = stay_memo.get(cfg)
            if got is None:
                got = stay_memo[cfg] = stay_cost(cfg, sizes)
            return got

        nxt: Dict[CircuitConfig,
                  Tuple[float, Tuple[SynthesizedStep, ...]]] = {}

        def offer(cfg, cost, path):
            cur = nxt.get(cfg)
            if cur is None or cost < cur[0]:
                nxt[cfg] = (cost, path)

        for cfg, (cost, path) in sorted(
                frontier.items(),
                key=lambda kv: (kv[1][0], kv[0].circuits)):
            makespan, prop = stay_of(cfg)
            if makespan < inf:
                rec = SynthesizedStep(
                    action="stay", config=cfg, total=makespan,
                    serialization=makespan - prop, propagation=prop,
                    reconfig_time=0.0)
                offer(cfg, cost + (overhead + makespan), path + (rec,))
            if not can_reconf or not ordered:
                continue
            plan = price(rounds, sizes, cfg, stripe_leftover)
            end = plan.new_configs[-1] if plan.new_configs else cfg
            rec = SynthesizedStep(
                action="rounds", config=end, total=plan.total,
                serialization=plan.serialization,
                propagation=plan.propagation,
                reconfig_time=plan.reconfig_time,
                new_configs=tuple(plan.new_configs),
                stripe_factor=plan.stripe_factor)
            offer(end, cost + (overhead + plan.total), path + (rec,))
            for cand in candidates[t]:
                if stripe_leftover:
                    ser, k = stripe_round_serialization(
                        ordered, sizes, ports, rate,
                        occupancy=degree_counts(cand.circuits))
                else:
                    ser = max(sizes[p] for p in ordered) / rate
                    k = 1
                pay = delay if cand != cfg else 0.0
                total = ser + latency + pay
                rec = SynthesizedStep(
                    action="install", config=cand, total=total,
                    serialization=ser, propagation=latency,
                    reconfig_time=pay,
                    new_configs=(cand,) if cand != cfg else (),
                    stripe_factor=k)
                offer(cand, cost + (overhead + total), path + (rec,))

        # -- greedy shadow: the substrate's per-step policy, replicated
        # with the same callbacks and the same accumulation order, so
        # its totals are float-identical to a plain execute().
        g_makespan, g_prop = stay_of(greedy_cfg)
        g_plan = (price(rounds, sizes, greedy_cfg, False)
                  if can_reconf else None)
        if g_plan is not None and g_plan.total < g_makespan:
            g_end = (g_plan.new_configs[-1] if g_plan.new_configs
                     else greedy_cfg)
            greedy_steps.append(SynthesizedStep(
                action="rounds", config=g_end, total=g_plan.total,
                serialization=g_plan.serialization,
                propagation=g_plan.propagation,
                reconfig_time=g_plan.reconfig_time,
                new_configs=tuple(g_plan.new_configs)))
            greedy_cost = greedy_cost + (overhead + g_plan.total)
            greedy_reconfigs += len(g_plan.new_configs)
            greedy_cfg = g_end
        else:
            if g_makespan == inf:
                raise TopologyError(
                    f"step {t} is unroutable on the current circuit "
                    f"configuration and reconfiguration is disabled "
                    f"(reconfiguration_delay=inf)")
            greedy_steps.append(SynthesizedStep(
                action="stay", config=greedy_cfg, total=g_makespan,
                serialization=g_makespan - g_prop, propagation=g_prop,
                reconfig_time=0.0))
            greedy_cost = greedy_cost + (overhead + g_makespan)

        keep = sorted(nxt.items(),
                      key=lambda kv: (kv[1][0], kv[0].circuits))
        frontier = dict(keep[:beam_width])
        # Force-merge the greedy trajectory: with its state always in
        # the frontier at no more than its own cost, the final minimum
        # can never exceed greedy_cost — the dominance guarantee
        # survives beam pruning.
        held = frontier.get(greedy_cfg)
        if held is None or held[0] > greedy_cost:
            frontier[greedy_cfg] = (greedy_cost, tuple(greedy_steps))

    _, (best_cost, best_path) = min(
        frontier.items(), key=lambda kv: (kv[1][0], kv[0].circuits))
    return SynthesizedProgram(
        initial=start,
        steps=best_path,
        total_time=best_cost,
        greedy_time=greedy_cost,
        reconfigurations=sum(len(s.new_configs) for s in best_path),
        greedy_reconfigurations=greedy_reconfigs)


def _reference_run(sub, system, demands, name, transfer_counts, current):
    """The substrate's static/reconfigure loop, one step at a time.

    Stay costs come from the substrate's fluid evaluator; the rounds
    plan is the pre-memo substrate's: a cold decomposition priced
    against the live circuits.
    """
    history: List[CircuitConfig] = [current]
    report = ExecutionReport(schedule_name=name, substrate=sub.name)
    now = 0.0
    for idx, sizes in enumerate(demands):
        ordered = tuple(sorted(sizes, key=lambda p: (-sizes[p], p)))
        demand_degree = max_pair_degree(ordered)

        stay_time, stay_prop = sub._stay_cost(system)(current, sizes)
        if system.can_reconfigure:
            plan = price_demand_rounds(
                decompose_demand(ordered, system.ports_per_node), sizes,
                current, circuit_rate=system.circuit_rate,
                circuit_latency=system.circuit_latency,
                reconfiguration_delay=system.reconfiguration_delay)
        else:
            plan = None

        if plan is not None and plan.total < stay_time:
            serialization = plan.serialization
            propagation = plan.propagation
            reconfig = plan.reconfig_time
            chosen = plan.total
            for cfg in plan.new_configs:
                history.append(cfg)
                current = cfg
        else:
            if stay_time == float("inf"):
                raise ConfigurationError(
                    f"step {idx} of {name!r} has transfers "
                    f"unroutable on the current circuit configuration "
                    f"and reconfiguration is disabled "
                    f"(reconfiguration_delay=inf)")
            serialization = stay_time - stay_prop
            propagation = stay_prop
            reconfig = 0.0
            chosen = stay_time

        duration = system.step_overhead + chosen
        now += duration
        report.steps.append(StepReport(
            index=idx, duration=duration,
            serialization_time=serialization,
            propagation_time=propagation,
            tuning_time=reconfig,
            overhead_time=system.step_overhead,
            num_transfers=transfer_counts[idx],
            striping=1,
            wavelength_demand=demand_degree))
    report.total_time = now
    program = TopologyProgram(
        num_nodes=system.num_nodes,
        ports_per_node=system.ports_per_node,
        configs=tuple(history),
        name=f"{name}@{sub.name}")
    return report, program


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, or its error as ``(type, message)``."""
    try:
        return fn(*args, **kwargs)
    except (ConfigurationError, TopologyError) as exc:
        return type(exc), str(exc)


# ---------------------------------------------------------------------------
# schedules built from a few repeated step matrices
# ---------------------------------------------------------------------------

_pair = st.tuples(st.integers(0, N - 1), st.integers(1, N - 1)).map(
    lambda sd: (sd[0], (sd[0] + sd[1]) % N))
_matrix = st.dictionaries(_pair, st.sampled_from([1e5, 1e6, 4e6, 1e7]),
                          min_size=1, max_size=6)


@st.composite
def schedules(draw):
    """1-4 distinct step matrices repeated over up to 16 steps; each
    repeat is the shared object or an equal copy, so both the identity
    and the value path of the interning are exercised.  One matrix may
    be another's pattern at twice the bytes (same pairs, new class)."""
    bases = draw(st.lists(_matrix, min_size=1, max_size=4))
    if len(bases) < 4 and draw(st.booleans()):
        bases.append({p: 2 * b for p, b in bases[0].items()})
    picks = draw(st.lists(st.integers(0, len(bases) - 1), min_size=1,
                          max_size=16))
    copies = draw(st.lists(st.booleans(), min_size=len(picks),
                           max_size=len(picks)))
    return [dict(bases[i]) if copy else bases[i]
            for i, copy in zip(picks, copies)]


DELAYS = st.sampled_from([0.0, 1e-6, 1e-4, 1e-2, INF])


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


class TestInternSteps:
    def test_classes_rebuild_every_step(self):
        a2 = dict(A)
        steps = [A, B, A, a2, B, {}, {}]
        classes, index = intern_steps(steps)
        assert [classes[k] for k in index] == steps
        assert index == [0, 1, 0, 0, 1, 2, 2]
        assert classes[0] is not A  # copies, not the caller's dicts

    def test_same_pattern_other_bytes_is_another_class(self):
        doubled = {p: 2 * b for p, b in A.items()}
        assert intern_steps([A, doubled, A])[1] == [0, 1, 0]

    def test_empty_schedule(self):
        assert intern_steps([]) == ([], [])


#: A schedule on which one install candidate is met both from a state
#: equal to it (no delay) and, later and cheaper, from another state
#: (pays the delay): install prices must be keyed on both.
SHARED_INSTALL = [
    {(1, 2): 4e6, (7, 3): 1e7, (6, 7): 1e6, (7, 6): 1e5, (6, 3): 1e7},
    {(7, 5): 4e6}]
SHARED_INSTALL = [SHARED_INSTALL[i] for i in (0, 1, 0, 0, 0, 0, 1, 0)]


class TestSynthesisDifferential:
    @settings(max_examples=60, deadline=None)
    @example(sched=SHARED_INSTALL, delay=1e-2, stripe=False,
             initial="ring", beam_width=2, horizon=4)
    @given(sched=schedules(), delay=DELAYS, stripe=st.booleans(),
           initial=st.sampled_from(["ring", "demand"]),
           beam_width=st.sampled_from([1, 2, 8]),
           horizon=st.sampled_from([1, 4]))
    def test_equals_per_step_dp(self, sched, delay, stripe, initial,
                                beam_width, horizon):
        system = ocs(reconfiguration_delay=delay)
        kwargs = dict(initial=initial, stripe_leftover=stripe,
                      beam_width=beam_width, horizon=horizon)
        got = _outcome(synthesize_program, sched, system, **kwargs)
        want = _outcome(_reference_synthesize_program, sched, system,
                        **kwargs)
        assert got == want


class TestStaticReconfigureDifferential:
    @settings(max_examples=60, deadline=None)
    @given(sched=schedules(), delay=DELAYS,
           initial=st.sampled_from(["ring", "demand"]),
           limit=st.sampled_from([OPTIMAL_DECOMPOSITION_LIMIT, 0]))
    def test_equals_per_step_loop(self, sched, delay, initial, limit):
        """``limit=0`` decomposes every step greedily: both sides read
        the size limit at call time."""
        system = ocs(reconfiguration_delay=delay)
        counts = [len(sizes) for sizes in sched]
        with mock.patch.object(ocs_program, "OPTIMAL_DECOMPOSITION_LIMIT",
                               limit):
            sub = OCSReconfigurableSubstrate(system, initial=initial)
            got = _outcome(sub.execute_demands, sched, name="memo",
                           transfer_counts=counts)
            if not isinstance(got, tuple):
                got = (got, sub.last_program)
            if initial == "demand":
                agg: Dict[CircuitPair, float] = {}
                for sizes in sched:
                    for pair, b in sizes.items():
                        agg[pair] = agg.get(pair, 0.0) + b
                start = demand_aware_boot_config(agg, N,
                                                 system.ports_per_node)
            else:
                start = ring_circuit_config(
                    N, bidirectional=system.ports_per_node >= 2)
            ref = OCSReconfigurableSubstrate(system)
            want = _outcome(_reference_run, ref, system, sched, "memo",
                            counts, start)
        assert got == want


class TestWorkBound:
    def test_stay_cost_once_per_distinct_step_and_config(self):
        """``[a, b] * 200``: a per-step DP re-prices the same two
        matchings on the same few configs for every frontier state at
        every step; the memo prices each distinct pair once."""
        system = ocs(reconfiguration_delay=2e-4)
        sched = [A, B] * 200
        base = _default_stay_cost(system)
        seen: List[Tuple[CircuitConfig, frozenset]] = []

        def counting(cfg, sizes):
            seen.append((cfg, frozenset(sizes.items())))
            return base(cfg, sizes)

        prog = synthesize_program(sched, system, stay_cost=counting)
        assert len(seen) == len(set(seen))
        ref = _reference_synthesize_program(sched, system)
        assert prog.total_time == ref.total_time
        assert prog.greedy_time == ref.greedy_time
        assert prog == ref

    def test_static_loop_prices_each_class_once_per_config(self):
        """Identical ring steps on a static fabric: one stay solve."""
        system = ocs(reconfiguration_delay=INF)
        sub = OCSReconfigurableSubstrate(system)
        ring = {(i, (i + 1) % N): 1e6 for i in range(N)}
        sub.execute_demands([ring] * 50)
        assert sub.fluid_cache_info().lookups == 1
