"""Topology programs for reconfigurable optical-circuit-switch fabrics.

A reconfigurable OCS fabric (TopoOpt/RAMP-style) does not have a fixed
wiring: at any instant the switch realises a *circuit configuration* — a
set of directed node-to-node circuits limited by each node's transceiver
port count — and may be re-programmed to a different configuration by
paying a reconfiguration delay.  This module provides the IR those
fabrics plan over:

* :class:`CircuitConfig` — one immutable circuit set with per-switch
  port-matching validation (``<= ports_per_node`` circuits originate and
  terminate at every node);
* :class:`TopologyProgram` — a validated sequence of configurations plus
  the reconfiguration-delay cost model (what a co-planner searches over
  and what an execution reports back);
* :class:`CircuitTopology` — a :class:`~repro.topology.base.Topology`
  view of one configuration, so the fluid simulator can route traffic
  (possibly multi-hop) over the circuits that currently exist;
* demand decomposition — :func:`decompose_demand` splits one synchronous
  step's transfer demand into port-feasible circuit rounds: optimally
  (bipartite edge colouring achieves the ``ceil(max_degree / ports)``
  lower bound, König's theorem) up to
  :data:`OPTIMAL_DECOMPOSITION_LIMIT` demand edges, greedily beyond;
* program synthesis — :class:`StepPricer` prices one call's steps and
  holds the myopic stay-vs-rounds policy, which the substrate runs
  step by step and :func:`synthesize_program` shadows in its DP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, Iterator, List,
                    Mapping, Optional, Sequence, Tuple, Union)

from ..errors import TopologyError
from .base import Link, Topology

#: A directed circuit request: (src node, dst node).
CircuitPair = Tuple[int, int]

#: Above this many demand edges the decomposition falls back from
#: optimal edge colouring to the greedy heuristic.
OPTIMAL_DECOMPOSITION_LIMIT = 2048


def degree_counts(pairs: Iterable[CircuitPair],
                  ) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per-node (out, in) circuit counts of a pair multiset.

    The one degree computation the whole subsystem shares: port
    validation, the edge-colouring ``Δ`` bound, and the substrates'
    demand-degree reporting all count this way.
    """
    out: Dict[int, int] = {}
    inn: Dict[int, int] = {}
    for s, d in pairs:
        out[s] = out.get(s, 0) + 1
        inn[d] = inn.get(d, 0) + 1
    return out, inn


def max_pair_degree(pairs: Iterable[CircuitPair]) -> int:
    """Worst per-node circuit count over both directions (0 if empty)."""
    out, inn = degree_counts(pairs)
    return max(list(out.values()) + list(inn.values()) + [0])


# ---------------------------------------------------------------------------
# circuit configurations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CircuitConfig:
    """One immutable set of directed circuits (an OCS port matching).

    ``circuits`` is kept sorted and deduplicated, so two configurations
    realising the same circuit set compare (and hash) equal regardless
    of construction order.  Parallel circuits between one pair are not
    modelled — an OCS port matching connects each (src, dst) pair at
    most once per configuration.
    """

    circuits: Tuple[CircuitPair, ...]

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.circuits)))
        object.__setattr__(self, "circuits", canon)
        for src, dst in canon:
            if src == dst:
                raise TopologyError(f"circuit {src}->{dst} is a loop")
        # The planners key their memos on configurations, so the hash
        # (the one a frozen dataclass derives) is computed once.
        object.__setattr__(self, "_hash", hash((canon,)))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def of(cls, circuits: Iterable[CircuitPair]) -> "CircuitConfig":
        """Build a configuration from any iterable of (src, dst) pairs."""
        return cls(circuits=tuple(circuits))

    # -- port accounting ----------------------------------------------------

    def out_degree(self, node: int) -> int:
        """Circuits originating at ``node`` (transmit ports in use)."""
        return sum(1 for s, _ in self.circuits if s == node)

    def in_degree(self, node: int) -> int:
        """Circuits terminating at ``node`` (receive ports in use)."""
        return sum(1 for _, d in self.circuits if d == node)

    def max_degree(self) -> int:
        """Worst per-node port usage over both directions."""
        return max_pair_degree(self.circuits)

    def validate(self, num_nodes: int, ports_per_node: int) -> None:
        """Check node ranges and the per-switch port-matching constraint."""
        for s, d in self.circuits:
            for node in (s, d):
                if not (0 <= node < num_nodes):
                    raise TopologyError(
                        f"circuit {s}->{d}: node {node} out of range "
                        f"[0, {num_nodes})")
        out, inn = degree_counts(self.circuits)
        for counts, kind in ((out, "transmit"), (inn, "receive")):
            for node, used in counts.items():
                if used > ports_per_node:
                    raise TopologyError(
                        f"node {node} needs {used} {kind} ports; switch "
                        f"provides {ports_per_node}")

    # -- queries ------------------------------------------------------------

    def has_circuit(self, src: int, dst: int) -> bool:
        """Whether a direct circuit ``src -> dst`` exists."""
        return (src, dst) in self.circuits

    def covers(self, pairs: Iterable[CircuitPair]) -> bool:
        """Whether every demand pair has a direct circuit."""
        have = set(self.circuits)
        return all(p in have for p in pairs)

    def issubset(self, other: "CircuitConfig") -> bool:
        """Whether every circuit here also exists in ``other``."""
        return set(self.circuits) <= set(other.circuits)

    def ports_changed(self, other: "CircuitConfig") -> int:
        """Circuits that differ between the two configurations.

        The symmetric-difference size — the number of circuit endpoints
        an OCS controller would have to re-patch to move between them.
        """
        return len(set(self.circuits) ^ set(other.circuits))

    def __len__(self) -> int:
        return len(self.circuits)

    def __iter__(self):
        return iter(self.circuits)


def ring_circuit_config(num_nodes: int,
                        bidirectional: bool = True) -> CircuitConfig:
    """The static ring wiring: circuits to the (two) ring neighbours.

    The natural boot configuration of an OCS fabric — it keeps every
    node reachable (so a never-reconfiguring fabric degrades to a static
    ring) and needs only 1 port per direction (2 when bidirectional).
    """
    if num_nodes < 2:
        raise TopologyError(f"a ring needs >=2 nodes, got {num_nodes}")
    pairs: List[CircuitPair] = [(i, (i + 1) % num_nodes)
                                for i in range(num_nodes)]
    if bidirectional and num_nodes > 2:
        pairs += [(i, (i - 1) % num_nodes) for i in range(num_nodes)]
    return CircuitConfig.of(pairs)


# ---------------------------------------------------------------------------
# topology programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TopologyProgram:
    """A sequence of circuit configurations a fabric steps through.

    The IR of reconfigurable-fabric planning: the co-planner proposes
    programs, the substrate executes (and records) them, and the
    reconfiguration-delay cost model below prices the switches between
    consecutive configurations.
    """

    num_nodes: int
    ports_per_node: int
    configs: Tuple[CircuitConfig, ...]
    name: str = "program"

    def __post_init__(self) -> None:
        if self.num_nodes < 2:
            raise TopologyError(
                f"a program needs >=2 nodes, got {self.num_nodes}")
        if self.ports_per_node < 1:
            raise TopologyError(
                f"ports_per_node must be >= 1, got {self.ports_per_node}")
        # Each distinct configuration once, in first-use order (a
        # recorded program revisits the same few configs many times).
        for cfg in dict.fromkeys(self.configs):
            cfg.validate(self.num_nodes, self.ports_per_node)

    @property
    def num_configs(self) -> int:
        """Number of configurations in the program."""
        return len(self.configs)

    @property
    def num_reconfigurations(self) -> int:
        """Transitions between *distinct* consecutive configurations."""
        return sum(1 for a, b in zip(self.configs, self.configs[1:])
                   if a != b)

    def reconfiguration_time(self, delay: float) -> float:
        """Total reconfiguration cost under a per-switch ``delay``."""
        return self.num_reconfigurations * delay

    def total_ports_changed(self) -> int:
        """Sum of circuit changes over all transitions (churn metric)."""
        return sum(a.ports_changed(b)
                   for a, b in zip(self.configs, self.configs[1:]))


# ---------------------------------------------------------------------------
# a Topology view of one configuration (for the fluid simulator)
# ---------------------------------------------------------------------------


class CircuitTopology(Topology):
    """The directed graph realised by one :class:`CircuitConfig`.

    Routing is breadth-first shortest path over the circuits (neighbour
    expansion in sorted circuit order, so routes are deterministic);
    unreachable pairs raise :class:`~repro.errors.TopologyError`.  Every
    circuit is one link of ``capacity`` bytes/s and ``latency`` seconds,
    so multi-hop traffic store-and-forwards across intermediate nodes
    and shares circuit bandwidth max-min fairly under the fluid model.
    """

    def __init__(self, num_nodes: int, config: CircuitConfig,
                 capacity: float, latency: float = 0.0) -> None:
        super().__init__(num_nodes)
        self.config = config
        self._adjacency: Dict[int, List[int]] = {}
        for src, dst in config.circuits:
            self._add_link(Link(src, dst, capacity, latency))
            self._adjacency.setdefault(src, []).append(dst)
        for nbrs in self._adjacency.values():
            nbrs.sort()
        self._next_hop: Dict[int, Dict[int, int]] = {}

    def path(self, src: int, dst: int) -> Sequence[Link]:
        """BFS shortest route over the circuits (may be multi-hop)."""
        self.validate_host(src)
        self.validate_host(dst)
        if src == dst:
            return []
        table = self._routes_from(src)
        if dst not in table:
            raise TopologyError(
                f"no circuit path {src}->{dst} in this configuration")
        hops: List[int] = [dst]
        while hops[-1] != src:
            hops.append(table[hops[-1]])
        hops.reverse()
        return [self.link(a, b) for a, b in zip(hops, hops[1:])]

    def _routes_from(self, src: int) -> Dict[int, int]:
        """Predecessor table of the BFS tree rooted at ``src`` (cached)."""
        table = self._next_hop.get(src)
        if table is None:
            table = {}
            frontier = [src]
            seen = {src}
            while frontier:
                nxt: List[int] = []
                for node in frontier:
                    for nbr in self._adjacency.get(node, ()):
                        if nbr not in seen:
                            seen.add(nbr)
                            table[nbr] = node
                            nxt.append(nbr)
                frontier = nxt
            self._next_hop[src] = table
        return table


# ---------------------------------------------------------------------------
# demand decomposition (one synchronous step -> circuit rounds)
# ---------------------------------------------------------------------------


def greedy_demand_rounds(pairs: Sequence[CircuitPair],
                         ports_per_node: int) -> List[Tuple[CircuitPair, ...]]:
    """Greedy decomposition: first-fit pairs into port-feasible rounds.

    Pairs are taken in the given order (callers pre-sort by descending
    bytes so heavy transfers land in early rounds); each round admits a
    pair while both endpoints have free ports.  May exceed the
    ``ceil(max_degree / ports)`` optimum on adversarial demands.
    """
    if ports_per_node < 1:
        raise TopologyError(
            f"ports_per_node must be >= 1, got {ports_per_node}")
    remaining = list(pairs)
    rounds: List[Tuple[CircuitPair, ...]] = []
    while remaining:
        out: Dict[int, int] = {}
        inn: Dict[int, int] = {}
        taken: List[CircuitPair] = []
        deferred: List[CircuitPair] = []
        for s, d in remaining:
            if (out.get(s, 0) < ports_per_node
                    and inn.get(d, 0) < ports_per_node):
                out[s] = out.get(s, 0) + 1
                inn[d] = inn.get(d, 0) + 1
                taken.append((s, d))
            else:
                deferred.append((s, d))
        rounds.append(tuple(taken))
        remaining = deferred
    return rounds


class _ColorState:
    """Mutable König-colouring state (occupancy maps + per-edge colours).

    ``u_used``/``v_used`` map colour -> edge index per endpoint ("u" =
    sender, "v" = receiver; the two sides are separate namespaces even
    for the same node id).  ``flip_low[i]`` records the smallest edge
    index whose colour an alternating-path inversion touched while edge
    ``i`` was being inserted (``i`` itself when none was) — the datum
    :class:`DecompositionDelta` needs to decide whether a stored suffix
    can be peeled off without disturbing the shared prefix.
    """

    __slots__ = ("u_used", "v_used", "colors", "flip_low")

    def __init__(self) -> None:
        self.u_used: Dict[int, Dict[int, int]] = {}
        self.v_used: Dict[int, Dict[int, int]] = {}
        self.colors: List[int] = []
        self.flip_low: List[int] = []


def _free_color(used: Dict[int, int], delta: int) -> int:
    for c in range(delta):
        if c not in used:
            return c
    raise TopologyError("edge colouring overflow")  # pragma: no cover


def _color_edges(state: _ColorState, pairs: Sequence[CircuitPair],
                 start: int, delta: int) -> None:
    """Insert ``pairs[start:]`` into the colouring ``state``.

    The classic alternating-path step, written as a continuation: a
    state holding the colouring of ``pairs[:start]`` plus these
    insertions reproduces — bit for bit — the colouring a from-scratch
    run over all of ``pairs`` would produce.  (Edge choices depend only
    on earlier edges: the smallest locally-free colour is independent
    of the ``delta`` scan bound because an endpoint of degree ``g`` has
    a free colour ``< g + 1 <= delta``, and inversions walk only
    already-inserted edges.)
    """
    u_used, v_used = state.u_used, state.v_used
    colors, flip_low = state.colors, state.flip_low
    for idx in range(start, len(pairs)):
        s, d = pairs[idx]
        us = u_used.setdefault(s, {})
        vd = v_used.setdefault(d, {})
        a = _free_color(us, delta)
        b = _free_color(vd, delta)
        low = idx
        if a != b:
            # Invert the a/b-alternating path starting at receiver ``d``
            # with colour ``a``.  König's argument: the path can never
            # reach sender ``s`` (senders are entered via colour-``a``
            # edges, which ``s`` has none of), so after the inversion
            # ``a`` is free at both endpoints of the new edge.
            edge = vd.pop(a, None)
            node, on_receiver = d, True
            cur, other = a, b
            while edge is not None:
                if edge < low:
                    low = edge
                es, ed = pairs[edge]
                far = es if on_receiver else ed
                far_used = (u_used if on_receiver
                            else v_used).setdefault(far, {})
                far_used.pop(cur, None)
                next_edge = far_used.pop(other, None)
                colors[edge] = other
                far_used[other] = edge
                near_used = (v_used if on_receiver else u_used)[node]
                near_used[other] = edge
                node, on_receiver = far, not on_receiver
                cur, other = other, cur
                edge = next_edge
        colors[idx] = a
        us[a] = idx
        vd[a] = idx
        flip_low[idx] = low


def color_bipartite_demand(pairs: Sequence[CircuitPair]) -> List[int]:
    """Optimally edge-colour the demand multigraph (König's theorem).

    Senders and receivers form the two sides of a bipartite multigraph;
    its chromatic index equals its maximum degree ``Δ``, and the classic
    alternating-path algorithm achieves it: each edge takes a colour
    free at both endpoints, flipping an a/b-alternating path first when
    the locally-free colours disagree.  Returns one colour in
    ``[0, Δ)`` per input pair; pairs sharing a colour form a matching.
    """
    state = _ColorState()
    state.colors = [-1] * len(pairs)
    state.flip_low = list(range(len(pairs)))
    _color_edges(state, pairs, 0, max_pair_degree(pairs))
    return state.colors


def optimal_demand_rounds(pairs: Sequence[CircuitPair],
                          ports_per_node: int,
                          ) -> List[Tuple[CircuitPair, ...]]:
    """Optimal decomposition: ``ceil(Δ / ports)`` port-feasible rounds.

    Edge-colours the demand into ``Δ`` matchings, then packs
    ``ports_per_node`` matchings per round — the round count meets the
    degree lower bound, which no decomposition can beat.
    """
    if ports_per_node < 1:
        raise TopologyError(
            f"ports_per_node must be >= 1, got {ports_per_node}")
    if not pairs:
        return []
    colors = color_bipartite_demand(pairs)
    return _pack_color_rounds(pairs, colors, ports_per_node)


def _pack_color_rounds(pairs: Sequence[CircuitPair], colors: Sequence[int],
                       ports_per_node: int) -> List[Tuple[CircuitPair, ...]]:
    """Pack ``ports_per_node`` colour classes per round (input order)."""
    delta = max(colors) + 1
    num_rounds = -(-delta // ports_per_node)
    rounds: List[List[CircuitPair]] = [[] for _ in range(num_rounds)]
    for pair, color in zip(pairs, colors):
        rounds[color // ports_per_node].append(pair)
    return [tuple(r) for r in rounds if r]


def decompose_demand(pairs: Sequence[CircuitPair],
                     ports_per_node: int) -> List[Tuple[CircuitPair, ...]]:
    """Split one step's demand pairs into port-feasible circuit rounds.

    Optimal (bipartite edge colouring, exact round minimum) up to
    :data:`OPTIMAL_DECOMPOSITION_LIMIT` demand edges, greedy first-fit
    beyond — the one size rule :class:`DecompositionDelta` shares, so
    the delta falls back when a growing demand crosses it.
    """
    if len(pairs) <= OPTIMAL_DECOMPOSITION_LIMIT:
        return optimal_demand_rounds(pairs, ports_per_node)
    return greedy_demand_rounds(pairs, ports_per_node)


# ---------------------------------------------------------------------------
# delta-aware decomposition (patch rounds across near-identical demands)
# ---------------------------------------------------------------------------


class _GreedyState:
    """Mutable first-fit placement state for the greedy decomposition.

    The multi-pass :func:`greedy_demand_rounds` is equivalent to a
    single pass that drops each pair into the lowest-indexed round with
    free ports at both endpoints (a pair lands in pass ``r`` exactly
    when rounds ``0..r-1`` conflicted with earlier-ordered pairs placed
    there) — and the single-pass form is resumable: a pair's round
    depends only on pairs ordered before it.
    """

    __slots__ = ("round_of", "out_used", "in_used")

    def __init__(self) -> None:
        self.round_of: List[int] = []
        self.out_used: List[Dict[int, int]] = []
        self.in_used: List[Dict[int, int]] = []

    def place(self, s: int, d: int, ports: int) -> None:
        r = 0
        while r < len(self.out_used):
            if (self.out_used[r].get(s, 0) < ports
                    and self.in_used[r].get(d, 0) < ports):
                break
            r += 1
        else:
            self.out_used.append({})
            self.in_used.append({})
        self.out_used[r][s] = self.out_used[r].get(s, 0) + 1
        self.in_used[r][d] = self.in_used[r].get(d, 0) + 1
        self.round_of.append(r)

    def remove_suffix(self, pairs: Sequence[CircuitPair],
                      keep: int) -> None:
        for idx in range(len(self.round_of) - 1, keep - 1, -1):
            s, d = pairs[idx]
            r = self.round_of[idx]
            self.out_used[r][s] -= 1
            self.in_used[r][d] -= 1
        del self.round_of[keep:]

    def rounds(self, pairs: Sequence[CircuitPair],
               ) -> List[Tuple[CircuitPair, ...]]:
        if not self.round_of:
            return []
        grouped: List[List[CircuitPair]] = [
            [] for _ in range(max(self.round_of) + 1)]
        for pair, r in zip(pairs, self.round_of):
            grouped[r].append(pair)
        return [tuple(r) for r in grouped if r]


class DecompositionDelta:
    """Incremental demand decomposition across near-identical steps.

    Mirrors the ring's RWA delta: consecutive synchronous steps of one
    workload usually differ in a handful of demand edges, yet the
    substrate re-ran the full König colouring every time the ordered
    pattern changed at all.  :meth:`solve` keeps the previous solve's
    live colouring (or first-fit placement) and patches it — untouched
    prefix edges keep their rounds verbatim, only the differing suffix
    is removed and re-coloured.

    The patch is a *computational shortcut, never an approximation*:
    every result is bit-for-bit what :func:`decompose_demand` returns
    for the same inputs, so memoizing patched results stays pure.  The
    exactness argument: the colouring of a prefix depends only on that
    prefix, so peeling the stored suffix off (freeing its colours)
    recreates the state a from-scratch run holds after the shared
    prefix — *provided* no suffix insertion's alternating-path flip
    recoloured a prefix edge, which ``flip_low`` detects.  When that
    condition (or the port budget / the size-chosen algorithm) breaks,
    the solve falls back to a full decomposition and counts it.
    """

    def __init__(self) -> None:
        self._pairs: Optional[Tuple[CircuitPair, ...]] = None
        self._ports = 0
        self._optimal = True
        self._color: Optional[_ColorState] = None
        self._greedy: Optional[_GreedyState] = None
        self._last: List[Tuple[CircuitPair, ...]] = []
        #: Solves answered by patching the previous solution.
        self.patched = 0
        #: Patch attempts that had to re-solve from scratch.
        self.fallbacks = 0

    def solve(self, pairs: Sequence[CircuitPair], ports_per_node: int,
              ) -> List[Tuple[CircuitPair, ...]]:
        """Rounds for ``pairs`` — identical to :func:`decompose_demand`."""
        pairs = tuple(pairs)
        optimal = len(pairs) <= OPTIMAL_DECOMPOSITION_LIMIT
        if ports_per_node < 1:
            raise TopologyError(
                f"ports_per_node must be >= 1, got {ports_per_node}")
        if self._pairs is not None:
            rounds = self._patch(pairs, ports_per_node, optimal)
            if rounds is not None:
                self.patched += 1
                self._last = rounds
                return list(rounds)
            self.fallbacks += 1
        return self._solve_full(pairs, ports_per_node, optimal)

    # -- internals ----------------------------------------------------------

    def _solve_full(self, pairs: Tuple[CircuitPair, ...], ports: int,
                    optimal: bool) -> List[Tuple[CircuitPair, ...]]:
        if optimal:
            state = _ColorState()
            state.colors = [-1] * len(pairs)
            state.flip_low = list(range(len(pairs)))
            _color_edges(state, pairs, 0, max_pair_degree(pairs))
            rounds = (_pack_color_rounds(pairs, state.colors, ports)
                      if pairs else [])
            self._color, self._greedy = state, None
        else:
            gstate = _GreedyState()
            for s, d in pairs:
                gstate.place(s, d, ports)
            rounds = gstate.rounds(pairs)
            self._color, self._greedy = None, gstate
        self._pairs = pairs
        self._ports = ports
        self._optimal = optimal
        self._last = rounds
        return list(rounds)

    def _patch(self, pairs: Tuple[CircuitPair, ...], ports: int,
               optimal: bool) -> Optional[List[Tuple[CircuitPair, ...]]]:
        old = self._pairs
        if old is None:
            raise TopologyError("no previous decomposition to patch")
        if ports != self._ports or optimal != self._optimal:
            return None
        if pairs == old:
            return list(self._last)
        k = 0
        limit = min(len(pairs), len(old))
        while k < limit and pairs[k] == old[k]:
            k += 1
        if k == 0:
            return None
        if optimal:
            state = self._color
            if state is None:
                raise TopologyError("optimal patch without a colouring")
            # Peeling the stored suffix is exact only if none of its
            # insertions flipped a colour inside the shared prefix.
            if any(state.flip_low[i] < k for i in range(k, len(old))):
                return None
            for idx in range(k, len(old)):
                s, d = old[idx]
                c = state.colors[idx]
                us = state.u_used.get(s)
                if us is not None and us.get(c) == idx:
                    del us[c]
                vd = state.v_used.get(d)
                if vd is not None and vd.get(c) == idx:
                    del vd[c]
            del state.colors[k:]
            del state.flip_low[k:]
            state.colors.extend([-1] * (len(pairs) - k))
            state.flip_low.extend(range(k, len(pairs)))
            _color_edges(state, pairs, k, max_pair_degree(pairs))
            rounds = _pack_color_rounds(pairs, state.colors, ports)
        else:
            gstate = self._greedy
            if gstate is None:
                raise TopologyError("greedy patch without a placement")
            gstate.remove_suffix(old, k)
            for idx in range(k, len(pairs)):
                s, d = pairs[idx]
                gstate.place(s, d, ports)
            rounds = gstate.rounds(pairs)
        self._pairs = pairs
        return rounds


# ---------------------------------------------------------------------------
# round pricing, leftover-port striping, demand-aware boot
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthesizedStep:
    """One planned step of an OCS program: how the fabric serves it.

    ``total`` is the step's serving cost exactly as accumulated by the
    DP (and by the greedy policy for the same action) — replaying
    ``overhead + total`` per step reproduces :attr:`SynthesizedProgram.
    total_time` bit for bit, which the greedy-equality pins rely on.
    """

    action: str  # "stay" | "rounds" | "install"
    config: CircuitConfig
    total: float
    serialization: float
    propagation: float
    reconfig_time: float
    new_configs: Tuple[CircuitConfig, ...] = ()
    stripe_factor: int = 1


def price_demand_rounds(rounds: Sequence[Tuple[CircuitPair, ...]],
                        sizes: Mapping[CircuitPair, float],
                        current: CircuitConfig, *,
                        circuit_rate: float, circuit_latency: float,
                        reconfiguration_delay: float,
                        stripe_leftover: bool = False,
                        ports_per_node: int = 0) -> SynthesizedStep:
    """Cost one step's decomposition rounds against the live circuits.

    Rounds already covered by what the switch is holding are served for
    free (no reconfiguration); the rest each install a fresh
    configuration and pay the delay.  The live set *evolves* round to
    round — installing a round's configuration tears the previous
    circuits down, so later rounds are priced against the last
    installed configuration, not the step-entry one.  Returns the
    ``"rounds"`` record, whose ``config`` is the last installed
    configuration (``current`` when every round was covered).
    """
    live = set(current.circuits)
    serialization = 0.0
    stripe = 1
    new_configs: List[CircuitConfig] = []
    for rnd in rounds:
        if stripe_leftover:
            ser, k = stripe_round_serialization(rnd, sizes, ports_per_node,
                                                circuit_rate)
            serialization += ser
            if k > stripe:
                stripe = k
        else:
            serialization += max(sizes[p] for p in rnd) / circuit_rate
        if not live.issuperset(rnd):
            cfg = CircuitConfig.of(rnd)
            new_configs.append(cfg)
            live = set(cfg.circuits)
    propagation = len(rounds) * circuit_latency
    reconfig_time = len(new_configs) * reconfiguration_delay
    return SynthesizedStep(
        action="rounds",
        config=new_configs[-1] if new_configs else current,
        total=serialization + propagation + reconfig_time,
        serialization=serialization, propagation=propagation,
        reconfig_time=reconfig_time, new_configs=tuple(new_configs),
        stripe_factor=stripe)


def stripe_round_serialization(round_pairs: Sequence[CircuitPair],
                               sizes: Mapping[CircuitPair, float],
                               ports_per_node: int, circuit_rate: float,
                               occupancy: Optional[Tuple[Dict[int, int],
                                                         Dict[int, int]]]
                               = None) -> Tuple[float, int]:
    """Serialization of one round with leftover-port striping.

    Water-fills idle transceiver ports onto the bottleneck pair: while
    the pair that finishes last still has a free transmit port at its
    source and a free receive port at its destination, grant it one
    more parallel circuit.  ``occupancy`` overrides the starting port
    usage (the synthesizer passes the full installed configuration's
    degrees when a round is served on a richer config).  Returns
    ``(serialization_seconds, max_split)``.

    A :class:`CircuitConfig` cannot represent parallel circuits between
    one pair, so this is a cost-model refinement only — the program
    synthesizer's ``stripe_leftover`` knob — and is off by default
    everywhere greedy parity is pinned.
    """
    if not round_pairs:
        return 0.0, 1
    if occupancy is None:
        out, inn = degree_counts(round_pairs)
    else:
        out, inn = dict(occupancy[0]), dict(occupancy[1])
    splits: Dict[CircuitPair, int] = {p: 1 for p in round_pairs}
    while True:
        bottleneck = max(round_pairs,
                         key=lambda p: (sizes[p] / splits[p], p))
        s, d = bottleneck
        if (out.get(s, 0) >= ports_per_node
                or inn.get(d, 0) >= ports_per_node):
            break
        out[s] = out.get(s, 0) + 1
        inn[d] = inn.get(d, 0) + 1
        splits[bottleneck] += 1
    ser = max(sizes[p] / (splits[p] * circuit_rate) for p in round_pairs)
    return ser, max(splits.values())


def demand_aware_boot_config(aggregate: Mapping[CircuitPair, float],
                             num_nodes: int,
                             ports_per_node: int) -> CircuitConfig:
    """A boot configuration seeded from the aggregate demand matrix.

    Grants direct circuits to the heaviest (src, dst) pairs first while
    the port budget allows, then pads leftover ports with ring edges
    (forward, then reverse) so the boot fabric keeps best-effort
    connectivity.  Unlike :func:`ring_circuit_config` connectivity is
    *not* guaranteed — heavy demand can exhaust a node's ports — which
    is fine on a reconfigurable fabric (unroutable steps simply force a
    reconfiguration) but can make a frozen (``delay=inf``) fabric raise
    on traffic the boot circuits do not reach.
    """
    if num_nodes < 2:
        raise TopologyError(
            f"a boot configuration needs >=2 nodes, got {num_nodes}")
    if ports_per_node < 1:
        raise TopologyError(
            f"ports_per_node must be >= 1, got {ports_per_node}")
    out: Dict[int, int] = {}
    inn: Dict[int, int] = {}
    taken: List[CircuitPair] = []
    have = set()

    def grab(s: int, d: int) -> None:
        if s == d or (s, d) in have:
            return
        if (out.get(s, 0) < ports_per_node
                and inn.get(d, 0) < ports_per_node):
            out[s] = out.get(s, 0) + 1
            inn[d] = inn.get(d, 0) + 1
            have.add((s, d))
            taken.append((s, d))

    for s, d in sorted(aggregate, key=lambda p: (-aggregate[p], p)):
        if 0 <= s < num_nodes and 0 <= d < num_nodes:
            grab(s, d)
    for i in range(num_nodes):
        grab(i, (i + 1) % num_nodes)
    if num_nodes > 2:
        for i in range(num_nodes):
            grab(i, (i - 1) % num_nodes)
    return CircuitConfig.of(taken)


# ---------------------------------------------------------------------------
# step pricing, the greedy policy, and lookahead synthesis (DP)
# ---------------------------------------------------------------------------

#: (config, sizes) -> (fluid makespan, propagation); inf when unroutable.
StayCost = Callable[[CircuitConfig, Mapping[CircuitPair, float]],
                    Tuple[float, float]]

#: (ordered pairs, ports) -> decomposition rounds.
Decompose = Callable[[Tuple[CircuitPair, ...], int],
                     List[Tuple[CircuitPair, ...]]]

#: Boot-config spec: ``"ring"``/``None``, ``"demand"`` or a config.
InitialSpec = Union[str, CircuitConfig, None]


def intern_steps(steps: Sequence[Mapping[CircuitPair, float]],
                 ) -> Tuple[List[Dict[CircuitPair, float]], List[int]]:
    """Distinct step matrices plus each step's index into them.

    Returns ``(classes, index)`` with ``classes[index[t]] == steps[t]``
    for every step: one ``dict`` copy per distinct ``{(src, dst):
    bytes}`` matrix, in first-occurrence order.  A phase repeated by
    reference (as :func:`~repro.core.topoplan.profile_demands` emits
    it) is matched by identity; any other step is matched by value.
    Every cost the OCS planners derive from a step is a function of its
    matrix alone, so pricing one class prices all its occurrences.
    """
    steps = list(steps)  # keeps every object alive while ids are keys
    classes: List[Dict[CircuitPair, float]] = []
    index: List[int] = []
    by_id: Dict[int, int] = {}
    by_value: Dict[frozenset, int] = {}
    for sizes in steps:
        k = by_id.get(id(sizes))
        if k is None:
            key = frozenset(sizes.items())
            k = by_value.get(key)
            if k is None:
                k = by_value[key] = len(classes)
                classes.append(dict(sizes))
            by_id[id(sizes)] = k
        index.append(k)
    return classes, index


def boot_config(initial: InitialSpec, system,
                classes: Sequence[Mapping[CircuitPair, float]],
                index: Sequence[int]) -> CircuitConfig:
    """The validated boot configuration ``initial`` names: the static
    ring (``"ring"``/``None``), :func:`demand_aware_boot_config` over
    the aggregate of steps ``classes[k]`` for ``k`` in ``index``
    (``"demand"``), or a given :class:`CircuitConfig`."""
    ports = system.ports_per_node
    if initial is None or initial == "ring":
        start = ring_circuit_config(system.num_nodes,
                                    bidirectional=ports >= 2)
    elif initial == "demand":
        agg: Dict[CircuitPair, float] = {}
        for k in index:
            for p, b in classes[k].items():
                agg[p] = agg.get(p, 0.0) + b
        start = demand_aware_boot_config(agg, system.num_nodes, ports)
    elif isinstance(initial, CircuitConfig):
        start = initial
    else:
        raise TopologyError(
            f"initial must be 'ring', 'demand' or a CircuitConfig, "
            f"got {initial!r}")
    start.validate(system.num_nodes, ports)
    return start


def circuit_simulator(system, config: CircuitConfig):
    """A fluid simulator over the live circuits ``config`` of ``system``
    (each circuit a link of the fabric's circuit rate and latency)."""
    from ..simulation.fluid import FluidNetworkSimulator

    return FluidNetworkSimulator(CircuitTopology(
        system.num_nodes, config, capacity=system.circuit_rate,
        latency=system.circuit_latency))


def fluid_stay_cost(simulator: Callable[[CircuitConfig], Any]) -> StayCost:
    """The fluid stay-cost evaluator over ``simulator(config)``.

    Serving a step on the live circuits costs the fluid makespan of its
    demand (routed in sorted pair order); the propagation is the path
    latency of the flow that finishes last, so step reports decompose
    consistently with the reconfigure branch.  A pair the circuits
    cannot route costs ``(inf, 0.0)``.
    """

    def cost(config: CircuitConfig,
             sizes: Mapping[CircuitPair, float]) -> Tuple[float, float]:
        sim = simulator(config)
        try:
            profile = sim.step_profile(
                [(s, d, b) for (s, d), b in sorted(sizes.items())])
        except TopologyError:
            return float("inf"), 0.0
        return profile.makespan, profile.propagation

    return cost


def _default_stay_cost(system) -> StayCost:
    """Fluid stay-cost evaluator for standalone synthesis.

    The substrate passes :func:`fluid_stay_cost` over its own pooled
    simulators instead; this builds one simulator per visited
    configuration for direct callers (the example, the property tests).
    """
    sims: Dict[CircuitConfig, Any] = {}

    def simulator(config: CircuitConfig):
        sim = sims.get(config)
        if sim is None:
            sim = sims[config] = circuit_simulator(system, config)
        return sim

    return fluid_stay_cost(simulator)


class StepPricer:
    """One planning call's step prices on an OCS fabric, memoized.

    ``classes`` are the call's distinct step matrices
    (:func:`intern_steps`).  Every price is a function of the step class
    and the live configuration alone (``stay_cost`` and ``decompose``
    must be pure), so each is computed once per call: the decomposition
    per class, the stay, rounds and install records per (class,
    config).  :meth:`greedy_steps` is the myopic policy over these
    prices — the substrate's policy without lookahead, and the
    trajectory :func:`synthesize_program` force-merges into its DP.
    """

    def __init__(self, classes: Sequence[Mapping[CircuitPair, float]],
                 system, stay_cost: StayCost, decompose: Decompose) -> None:
        self.classes = classes
        #: Each class's pairs, heaviest first (ties by pair).
        self.ordered = [tuple(sorted(d, key=lambda p: (-d[p], p)))
                        for d in classes]
        self.system = system
        self._stay_cost = stay_cost
        self._decompose = decompose
        self._rounds_of: Dict[int, List[Tuple[CircuitPair, ...]]] = {}
        self._stays: Dict[tuple, Tuple[float, SynthesizedStep]] = {}
        self._plans: Dict[tuple, SynthesizedStep] = {}
        self._installs: Dict[tuple, SynthesizedStep] = {}

    def stay(self, k: int, cfg: CircuitConfig,
             ) -> Tuple[float, SynthesizedStep]:
        """``(makespan, record)`` of serving class ``k`` on the live
        circuits ``cfg``; the makespan is inf when a pair is unroutable."""
        got = self._stays.get((k, cfg))
        if got is None:
            makespan, prop = self._stay_cost(cfg, self.classes[k])
            got = self._stays[k, cfg] = (makespan, SynthesizedStep(
                action="stay", config=cfg, total=makespan,
                serialization=makespan - prop, propagation=prop,
                reconfig_time=0.0))
        return got

    def rounds(self, k: int, cfg: CircuitConfig,
               striped: bool) -> SynthesizedStep:
        """Class ``k`` served through its decomposition rounds from the
        live circuits ``cfg`` (:func:`price_demand_rounds`)."""
        rec = self._plans.get((k, cfg, striped))
        if rec is None:
            system, ordered = self.system, self.ordered[k]
            rounds = self._rounds_of.get(k)
            if rounds is None:
                rounds = self._rounds_of[k] = (
                    self._decompose(ordered, system.ports_per_node)
                    if ordered else [])
            rec = self._plans[k, cfg, striped] = price_demand_rounds(
                rounds, self.classes[k], cfg, circuit_rate=system.circuit_rate,
                circuit_latency=system.circuit_latency,
                reconfiguration_delay=system.reconfiguration_delay,
                stripe_leftover=striped, ports_per_node=system.ports_per_node)
        return rec

    def install(self, k: int, cand: CircuitConfig, cfg: CircuitConfig,
                striped: bool) -> SynthesizedStep:
        """Class ``k`` served on direct circuits after installing
        ``cand`` from ``cfg`` (free when ``cand`` is already live)."""
        same = cand == cfg
        rec = self._installs.get((k, cand, same))
        if rec is None:
            system = self.system
            ordered, sizes = self.ordered[k], self.classes[k]
            if striped:
                ser, split = stripe_round_serialization(
                    ordered, sizes, system.ports_per_node, system.circuit_rate,
                    occupancy=degree_counts(cand.circuits))
            else:
                ser = max(sizes[p] for p in ordered) / system.circuit_rate
                split = 1
            pay = 0.0 if same else system.reconfiguration_delay
            rec = self._installs[k, cand, same] = SynthesizedStep(
                action="install", config=cand,
                total=ser + system.circuit_latency + pay, serialization=ser,
                propagation=system.circuit_latency, reconfig_time=pay,
                new_configs=() if same else (cand,), stripe_factor=split)
        return rec

    def greedy_steps(self, index: Sequence[int],
                     start: CircuitConfig) -> Iterator[SynthesizedStep]:
        """The myopic policy from ``start`` over steps ``index``: per
        step, the cheaper of staying on the live circuits and
        reconfiguring through the decomposition's rounds (ties stay;
        rounds never stripe).  A stay with ``total == inf`` is an
        unroutable step on a frozen fabric: the caller raises."""
        cfg, can_reconf = start, self.system.can_reconfigure
        for k in index:
            makespan, step = self.stay(k, cfg)
            if can_reconf:
                rounds = self.rounds(k, cfg, False)
                if rounds.total < makespan:
                    step = rounds
            yield step
            cfg = step.config


@dataclass(frozen=True)
class SynthesizedProgram:
    """The outcome of :func:`synthesize_program` for one schedule."""

    initial: CircuitConfig
    steps: Tuple[SynthesizedStep, ...]
    total_time: float
    greedy_time: float
    reconfigurations: int
    greedy_reconfigurations: int

    @property
    def reconfigurations_saved(self) -> int:
        """Switches the lookahead plan avoids vs the greedy policy."""
        return max(0, self.greedy_reconfigurations - self.reconfigurations)


def synthesize_program(
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
    greedy policy's trajectory (:meth:`StepPricer.greedy_steps`, over
    the same prices) runs alongside and is force-merged into the
    frontier every step, so ``total_time <= greedy_time`` holds on
    every schedule by construction — never worse than the myopic
    policy, bit-for-bit equal where greedy is already optimal
    (``delay=0`` matchings) and trivially at ``delay=inf`` (no
    reconfiguration branches exist).

    ``initial`` seeds the DP's boot state (:func:`boot_config`).
    ``stripe_leftover`` prices rounds/installs with
    :func:`stripe_round_serialization` (cost model only, default off;
    the greedy trajectory never stripes).

    Steps are interned once per call (:func:`intern_steps`) and priced
    by one :class:`StepPricer`; install candidates are built once per
    window of step classes, and paths are back-pointer chains, so the
    DP is linear in the number of steps.  Costs still accumulate step
    by step as ``cost + (overhead + total)``, so the program is
    bit-for-bit the one that pricing every step afresh finds.
    """
    ports = system.ports_per_node
    overhead = system.step_overhead
    can_reconf = system.can_reconfigure
    inf = float("inf")

    classes, index = intern_steps(schedule_demands)
    start = boot_config(initial, system, classes, index)
    pricer = StepPricer(classes, system,
                        stay_cost or _default_stay_cost(system),
                        decompose or decompose_demand)
    ordered_of = pricer.ordered

    # Install candidates per step: unions of this and the next steps'
    # demand pairs, extended while they stay port-feasible.  Installing
    # one once lets every covered step stay for free afterwards.  They
    # depend only on the window's step classes, built once per window.
    num_steps = len(index)
    pair_sets = [frozenset(o) for o in ordered_of]
    windows: Dict[Tuple[int, ...], List[CircuitConfig]] = {}
    candidates: List[List[CircuitConfig]] = []
    for t in range(num_steps):
        window = tuple(index[t:max(t, t + horizon)])
        cands = windows.get(window)
        if cands is None:
            cands = windows[window] = []
            acc: set = set()
            for k in window:
                acc |= pair_sets[k]
                if not acc or max_pair_degree(acc) > ports:
                    break
                cfg = CircuitConfig.of(acc)
                if not cands or cands[-1] != cfg:
                    cands.append(cfg)
        candidates.append(cands)

    def by_cost(kv):
        return kv[1][0], kv[0].circuits

    #: config -> (cumulative cost, back-pointer chain ``(step, parent)``)
    frontier: Dict[CircuitConfig, Tuple[float, Optional[tuple]]]
    frontier = {start: (0.0, None)}
    greedy = pricer.greedy_steps(index, start)
    greedy_cost = 0.0
    greedy_path: Optional[tuple] = None
    greedy_reconfigs = 0

    for t, k in enumerate(index):
        ordered = ordered_of[k]
        nxt: Dict[CircuitConfig, Tuple[float, Optional[tuple]]] = {}

        def offer(rec, cost, path):
            cur = nxt.get(rec.config)
            if cur is None or cost < cur[0]:
                nxt[rec.config] = (cost, (rec, path))

        for cfg, (cost, path) in sorted(frontier.items(), key=by_cost):
            makespan, rec = pricer.stay(k, cfg)
            if makespan < inf:
                offer(rec, cost + (overhead + makespan), path)
            if not can_reconf or not ordered:
                continue
            rec = pricer.rounds(k, cfg, stripe_leftover)
            offer(rec, cost + (overhead + rec.total), path)
            for cand in candidates[t]:
                rec = pricer.install(k, cand, cfg, stripe_leftover)
                offer(rec, cost + (overhead + rec.total), path)

        # The greedy trajectory accumulates its totals in the same order
        # as a plain substrate execute(), so they are float-identical.
        step = next(greedy)
        if step.total == inf:
            raise TopologyError(
                f"step {t} is unroutable on the current circuit "
                f"configuration and reconfiguration is disabled "
                f"(reconfiguration_delay=inf)")
        greedy_path = (step, greedy_path)
        greedy_cost = greedy_cost + (overhead + step.total)
        greedy_reconfigs += len(step.new_configs)

        frontier = dict(sorted(nxt.items(), key=by_cost)[:beam_width])
        # Force-merge the greedy trajectory: with its state always in
        # the frontier at no more than its own cost, the final minimum
        # can never exceed greedy_cost — the dominance guarantee
        # survives beam pruning.
        held = frontier.get(step.config)
        if held is None or held[0] > greedy_cost:
            frontier[step.config] = (greedy_cost, greedy_path)

    _, (best_cost, chain) = min(frontier.items(), key=by_cost)
    best_path: List[SynthesizedStep] = []
    while chain is not None:
        rec, chain = chain
        best_path.append(rec)
    best_path.reverse()
    return SynthesizedProgram(
        initial=start,
        steps=tuple(best_path),
        total_time=best_cost,
        greedy_time=greedy_cost,
        reconfigurations=sum(len(s.new_configs) for s in best_path),
        greedy_reconfigurations=greedy_reconfigs)
