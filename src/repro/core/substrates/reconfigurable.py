"""The reconfigurable optical-circuit-switch substrate (``"ocs-reconfig"``).

The first substrate whose *topology is part of the execution*: a central
OCS (TopoOpt/RAMP-style) realises one
:class:`~repro.topology.program.CircuitConfig` at a time, and executing
a schedule means deciding, per synchronous step, whether to

* **stay** — route the step's transfers (possibly multi-hop,
  store-and-forward) over the circuits that already exist, sharing
  circuit bandwidth max-min fairly under the fluid model; or
* **reconfigure** — decompose the step's demand into port-feasible
  circuit *rounds* (optimal bipartite edge colouring meeting the
  ``ceil(Δ/ports)`` bound, greedy first-fit on very large steps) and
  serve each round on dedicated direct circuits, paying the
  reconfiguration delay for every round that is not already a subset
  of the live configuration.

The cheaper option wins (ties stay, avoiding pointless switching), so
``reconfiguration_delay = inf`` degrades the fabric exactly to its
boot-time static topology, and ``delay = 0`` is the ideal
infinitely-agile OCS.  The sequence of configurations actually used is
recorded as a :class:`~repro.topology.program.TopologyProgram`
(:attr:`last_program`) for the co-planner and reports.

Demand decomposition depends only on the step's *ordered* transfer
pattern and the port budget — not on transfer sizes — so it is memoized
(the "step cache", keyed by (ports, ordered pattern)), mirroring the
optical ring's RWA cache; statistics surface through :meth:`describe`
and the CLI.
"""

from __future__ import annotations

import math
from numbers import Integral, Real
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ...collectives.primitives import transfer_bytes
from ...collectives.schedule import Schedule
from ...config import ReconfigurableOCSSystem, Workload, default_ocs
from ...errors import ConfigurationError, TopologyError
from ...simulation.fluid import FluidNetworkSimulator
from ...topology.program import (CircuitConfig, CircuitPair,
                                 DecompositionDelta, StayCost, StepPricer,
                                 TopologyProgram, boot_config,
                                 circuit_simulator, fluid_stay_cost,
                                 intern_steps, max_pair_degree,
                                 synthesize_program)
from .base import (CacheStats, ExecutionReport, FluidCacheMixin, LruCache,
                   StepReport, Substrate, SubstrateInfo)

Initial = Union[str, CircuitConfig]

#: Bound on memoized demand decompositions per instance (LRU).
DEFAULT_STEP_CACHE_SIZE = 4096

#: Admission bound: steps with more distinct transfer pairs than this
#: are decomposed but not memoized (their keys and round lists are
#: large, and steps that size rarely repeat) — the same policy the RWA
#: and fluid pattern caches apply.
DEFAULT_STEP_CACHE_MAX_PAIRS = 1024

#: Bound on cached per-configuration fluid simulators.
_SIM_CACHE_MAX = 64


def _is_node_pair(pair) -> bool:
    """Whether a demand key is a ``(src, dst)`` tuple of integer node ids
    (``int`` or numpy integers, never ``bool``)."""
    return (isinstance(pair, tuple) and len(pair) == 2
            and all(isinstance(v, Integral) and not isinstance(v, bool)
                    for v in pair))


def _is_byte_count(b) -> bool:
    """Whether a demand value is a finite real byte count > 0 (never a
    ``bool``)."""
    return isinstance(b, Real) and not isinstance(b, bool) and 0 < b < math.inf


class OCSReconfigurableSubstrate(FluidCacheMixin, Substrate):
    """Reconfiguration-aware schedule execution on an OCS fabric.

    Parameters
    ----------
    system:
        The :class:`~repro.config.ReconfigurableOCSSystem`; ``None``
        derives a default fabric per schedule
        (:func:`~repro.config.default_ocs` at ``schedule.num_nodes``).
    initial:
        Boot circuit configuration: ``"ring"`` (default — a
        bidirectional neighbour ring when the port budget allows, else
        unidirectional), ``"demand"`` (seeded from the schedule's
        aggregate demand) or an explicit
        :class:`~repro.topology.program.CircuitConfig`.
    lookahead:
        Plan the whole schedule's circuit program by DP instead of the
        myopic per-step choice (per-call override via ``execute``).
    stripe_leftover:
        Let the DP price rounds and installs with leftover-port
        striping (cost model only).

    Steps with more than :data:`DEFAULT_STEP_CACHE_MAX_PAIRS` distinct
    transfer pairs are decomposed but not memoized; they surface as
    ``step_cache_skipped`` in :meth:`describe`.
    """

    name = "ocs-reconfig"

    def __init__(self, system: Optional[ReconfigurableOCSSystem] = None,
                 initial: Initial = "ring",
                 lookahead: bool = False,
                 stripe_leftover: bool = False) -> None:
        if system is not None \
                and not isinstance(system, ReconfigurableOCSSystem):
            raise ConfigurationError(
                f"ocs-reconfig substrate needs a ReconfigurableOCSSystem, "
                f"got {type(system).__name__}")
        if not isinstance(initial, CircuitConfig) \
                and initial not in ("ring", "demand"):
            raise ConfigurationError(
                f"initial must be 'ring', 'demand' or a CircuitConfig, "
                f"got {initial!r}")
        self._system = system
        self._initial = initial
        self._cache = LruCache(DEFAULT_STEP_CACHE_SIZE,
                               admit_cost_bound=DEFAULT_STEP_CACHE_MAX_PAIRS)
        self._sims = LruCache(_SIM_CACHE_MAX)
        self._last_program: Optional[TopologyProgram] = None
        self._lookahead = lookahead
        self._stripe_leftover = stripe_leftover
        self._delta = DecompositionDelta()
        self._lookahead_saved = 0

    # -- cache management ---------------------------------------------------

    def step_cache_info(self) -> CacheStats:
        """Current decomposition-cache counters."""
        return CacheStats(hits=self._cache.hits,
                          misses=self._cache.misses,
                          size=len(self._cache),
                          max_size=self._cache.max_size,
                          skipped=self._cache.skipped)

    def clear_step_cache(self) -> None:
        """Drop every memoized decomposition (counters reset too)."""
        self._cache.clear()

    # -- substrate interface ------------------------------------------------

    @property
    def last_program(self) -> Optional[TopologyProgram]:
        """The circuit program realised by the most recent ``execute``."""
        return self._last_program

    def describe(self) -> SubstrateInfo:
        """Metadata: fabric model, policies, and step-cache statistics."""
        stats = self.step_cache_info()
        params: List[Tuple[str, object]] = [
            ("initial", self._initial if isinstance(self._initial, str)
             else "custom"),
            ("step_cache_hits", stats.hits),
            ("step_cache_misses", stats.misses),
            ("step_cache_hit_rate", round(stats.hit_rate, 4)),
            ("step_cache_skipped", stats.skipped),
            ("lookahead", self._lookahead),
            ("stripe_leftover", self._stripe_leftover),
            ("decomp_delta_patched", self._delta.patched),
            ("decomp_delta_fallbacks", self._delta.fallbacks),
            ("lookahead_reconfigs_saved", self._lookahead_saved),
        ]
        params += self._fluid_cache_params()
        if self._system is not None:
            params += [
                ("num_nodes", self._system.num_nodes),
                ("ports_per_node", self._system.ports_per_node),
                ("circuit_rate", self._system.circuit_rate),
                ("reconfiguration_delay",
                 self._system.reconfiguration_delay),
            ]
        return SubstrateInfo(
            name=self.name, kind="optical",
            description="reconfigurable OCS fabric: per-step choice of "
                        "serving on the live circuits or paying the "
                        "reconfiguration delay for matched rounds",
            parameters=tuple(params))

    def execute(self, schedule: Schedule, workload: Workload,
                lookahead: Optional[bool] = None) -> ExecutionReport:
        """Execute ``schedule`` on the OCS fabric (see class docstring).

        ``lookahead`` overrides the constructor knob per call: ``True``
        plans the whole schedule's circuit program by DP
        (:func:`~repro.topology.program.synthesize_program`) instead of
        the myopic per-step choice.  With reconfiguration disabled
        (``delay=inf``) the DP has no moves, so the greedy path runs
        either way — bit-for-bit identical reports and errors.
        """
        use_lookahead = self._lookahead if lookahead is None else lookahead
        system = self._resolve_system(schedule)
        demands: List[Dict[CircuitPair, float]] = []
        for step in schedule.steps:
            sizes: Dict[CircuitPair, float] = {}
            for t in step:
                b = transfer_bytes(t, workload.data_bytes,
                                   schedule.num_chunks)
                sizes[(t.src, t.dst)] = sizes.get((t.src, t.dst), 0.0) + b
            demands.append(sizes)
        counts = [len(step) for step in schedule.steps]
        classes, index = intern_steps(demands)
        return self._run_demands(system, classes, index, schedule.name,
                                 counts, use_lookahead)

    def execute_demands(self, demands: List[Dict[CircuitPair, float]],
                        name: str = "demand-program",
                        transfer_counts: Optional[List[int]] = None,
                        num_nodes: Optional[int] = None,
                        lookahead: Optional[bool] = None) -> ExecutionReport:
        """Execute a raw per-step demand sequence — the strategy planner's
        entry point.

        ``demands`` is an ordered list of ``{(src, dst): bytes}`` step
        matrices — exactly the internal currency :meth:`execute` lowers a
        schedule into, so concatenating several phases' matrices (the
        co-planner's multi-phase training step) runs through the *same*
        stay-vs-reconfigure machinery, step cache, and lookahead DP,
        bit for bit.  ``transfer_counts`` preserves per-step transfer
        counts for the report (defaults to the number of distinct
        pairs); ``num_nodes`` sizes the default fabric when the
        substrate was built without a system (defaults to the largest
        rank mentioned plus one).
        """
        use_lookahead = self._lookahead if lookahead is None else lookahead
        demands = list(demands)
        for t, sizes in enumerate(demands):
            if type(sizes) is not dict and not isinstance(sizes, Mapping):
                raise ConfigurationError(
                    f"step {t} of {name!r} is a {type(sizes).__name__}, "
                    f"not a {{(src, dst): bytes}} mapping")
        classes, index = intern_steps(demands)
        if not index:
            raise ConfigurationError(f"demand program {name!r} is empty")
        for k, sizes in enumerate(classes):
            if not sizes:
                raise ConfigurationError(
                    f"step {index.index(k)} of {name!r} has no demand")
            # Exact-type tests first: the ABC checks cost ~1 µs a call,
            # and this loop sees every pair of every distinct step.
            for pair, b in sizes.items():
                if not ((type(pair) is tuple and len(pair) == 2
                         and type(pair[0]) is type(pair[1]) is int)
                        or _is_node_pair(pair)):
                    problem = "is not a (src, dst) pair of integer node ids"
                elif pair[0] == pair[1]:
                    problem = "is a self-loop"
                elif pair[0] < 0 or pair[1] < 0:
                    problem = "names a negative node"
                elif not ((type(b) is float and 0 < b < math.inf)
                          or _is_byte_count(b)):
                    problem = f"carries {b!r} bytes; need a finite count > 0"
                else:
                    continue
                raise ConfigurationError(
                    f"step {index.index(k)} of {name!r}: pair {pair!r} "
                    f"{problem}")
        if transfer_counts is None:
            counts = [len(classes[k]) for k in index]
        else:
            counts = list(transfer_counts)
            if len(counts) != len(index):
                raise ConfigurationError(
                    f"transfer_counts has {len(counts)} entries for "
                    f"{len(index)} demand steps")
        system = self._resolve_demand_system(classes, num_nodes)
        return self._run_demands(system, classes, index, name, counts,
                                 use_lookahead)

    def _run_demands(self, system: ReconfigurableOCSSystem,
                     classes: List[Dict[CircuitPair, float]],
                     index: List[int], name: str,
                     transfer_counts: List[int],
                     use_lookahead: bool) -> ExecutionReport:
        """The demand-driven core shared by :meth:`execute` and
        :meth:`execute_demands` (identical floats, order, and errors).

        The steps arrive interned once per call
        (:func:`~repro.topology.program.intern_steps`): ``classes`` holds
        the distinct step matrices and step ``t`` serves
        ``classes[index[t]]``.  A policy plans one
        :class:`~repro.topology.program.SynthesizedStep` per step — the
        myopic :meth:`~repro.topology.program.StepPricer.greedy_steps`,
        or under ``lookahead`` the whole-schedule DP — and one loop
        turns either plan into the report and :attr:`last_program`.
        """
        try:
            start = boot_config(self._initial, system, classes, index)
        except TopologyError as exc:
            raise ConfigurationError(
                f"initial circuit configuration invalid for this "
                f"fabric: {exc}") from exc

        stay_cost = self._stay_cost(system)
        if use_lookahead and system.can_reconfigure:
            # The synthesized steps carry their exact chosen cost, so the
            # report accumulates the same floats the DP compared
            # (``report.total_time == program.total_time``), and the
            # dominance guarantee (never worse than greedy) carries
            # over.  The DP receives the interned step objects, so its
            # own interning matches every repeat by identity.
            program = synthesize_program(
                [classes[k] for k in index], system, initial=start,
                stay_cost=stay_cost, decompose=self._rounds,
                stripe_leftover=self._stripe_leftover)
            self._lookahead_saved += program.reconfigurations_saved
            steps = program.steps
        else:
            pricer = StepPricer(classes, system, stay_cost, self._rounds)
            steps = []
            for idx, st in enumerate(pricer.greedy_steps(index, start)):
                if st.total == float("inf"):
                    raise ConfigurationError(
                        f"step {idx} of {name!r} has transfers "
                        f"unroutable on the current circuit configuration "
                        f"and reconfiguration is disabled "
                        f"(reconfiguration_delay=inf)")
                steps.append(st)
        degrees = [max_pair_degree(sizes) for sizes in classes]
        history: List[CircuitConfig] = [start]
        report = ExecutionReport(schedule_name=name,
                                 substrate=self.name)
        now = 0.0
        for idx, st in enumerate(steps):
            duration = system.step_overhead + st.total
            now += duration
            history.extend(st.new_configs)
            report.steps.append(StepReport(
                index=idx, duration=duration,
                serialization_time=st.serialization,
                propagation_time=st.propagation,
                tuning_time=st.reconfig_time,
                overhead_time=system.step_overhead,
                num_transfers=transfer_counts[idx],
                striping=st.stripe_factor,
                wavelength_demand=degrees[index[idx]]))
        report.total_time = now
        self._last_program = TopologyProgram(
            num_nodes=system.num_nodes,
            ports_per_node=system.ports_per_node,
            configs=tuple(history),
            name=f"{name}@{self.name}")
        return report

    # -- internals ----------------------------------------------------------

    def _default_system(self, num_nodes: int) -> ReconfigurableOCSSystem:
        return default_ocs(num_nodes)

    def _resolve_demand_system(self,
                               classes: List[Dict[CircuitPair, float]],
                               num_nodes: Optional[int],
                               ) -> ReconfigurableOCSSystem:
        top = max((max(s, d) for sizes in classes for (s, d) in sizes),
                  default=-1)
        if self._system is not None:
            if top >= self._system.num_nodes:
                raise ConfigurationError(
                    f"demand mentions node {top}; system has "
                    f"{self._system.num_nodes}")
            return self._system
        if num_nodes is None:
            num_nodes = max(top + 1, 2)
        elif top >= num_nodes:
            raise ConfigurationError(
                f"demand mentions node {top}; num_nodes is {num_nodes}")
        return self._default_system(num_nodes)

    def _stay_cost(self, system: ReconfigurableOCSSystem) -> StayCost:
        """The fluid stay-cost evaluator
        (:func:`~repro.topology.program.fluid_stay_cost`) over this
        substrate's pooled per-configuration simulators."""
        return fluid_stay_cost(
            lambda config: self._simulator(system, config))

    def _rounds(self, ordered: Tuple[CircuitPair, ...],
                ports: int) -> List[Tuple[CircuitPair, ...]]:
        """Memoized demand decomposition for one step.

        The decomposition depends only on the ordered pair pattern and
        the port budget (the algorithm is chosen by the pattern's size)
        — transfer sizes enter the cost only through the ordering, which
        the key captures.

        On cache misses the solve goes through the instance's
        :class:`~repro.topology.program.DecompositionDelta`, which
        patches the previous miss's rounds when the new pattern shares
        a long prefix (step churn) — the patch is *exact* (bit-for-bit
        ``decompose_demand`` output), so memoizing patched results is
        as pure as memoizing cold ones.
        """
        key = (ports, ordered)
        rounds = self._cache.get(key)
        if rounds is None:
            rounds = self._delta.solve(ordered, ports)
            # Admission policy: very large steps are decomposed but not
            # memoized (`step_cache_skipped` counts them).
            self._cache.put(key, rounds, cost=len(ordered))
        return rounds

    def _simulator(self, system: ReconfigurableOCSSystem,
                   config: CircuitConfig) -> FluidNetworkSimulator:
        """The pooled simulator of one circuit configuration (the
        fabric's topology is the live config, so the mixin's
        per-system pool is keyed by ``(system, config)`` here)."""
        key = (system, config)
        sim = self._sims.get(key)
        if sim is None:
            sim = circuit_simulator(system, config)
            self._register_fluid_simulator(sim)
            self._sims.put(key, sim)
        return sim
