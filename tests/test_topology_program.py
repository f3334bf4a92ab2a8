"""Tests for the topology-program IR (circuit configs, decomposition)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TopologyError
from repro.topology.program import (CircuitConfig, CircuitTopology,
                                    TopologyProgram,
                                    color_bipartite_demand,
                                    decompose_demand, greedy_demand_rounds,
                                    optimal_demand_rounds,
                                    ring_circuit_config)


def degrees(pairs):
    out, inn = {}, {}
    for s, d in pairs:
        out[s] = out.get(s, 0) + 1
        inn[d] = inn.get(d, 0) + 1
    return out, inn


def max_degree(pairs):
    out, inn = degrees(pairs)
    return max(list(out.values()) + list(inn.values()) + [0])


@st.composite
def demand_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    k = draw(st.integers(min_value=0, max_value=24))
    pairs = []
    for _ in range(k):
        s = draw(st.integers(min_value=0, max_value=n - 1))
        d = draw(st.integers(min_value=0, max_value=n - 1).filter(
            lambda x, s=s: x != s))
        pairs.append((s, d))
    return pairs


class TestCircuitConfig:
    def test_canonical_order_and_dedup(self):
        a = CircuitConfig.of([(2, 3), (0, 1), (2, 3)])
        b = CircuitConfig.of([(0, 1), (2, 3)])
        assert a == b
        assert hash(a) == hash(b)
        assert a.circuits == ((0, 1), (2, 3))

    def test_loop_rejected(self):
        with pytest.raises(TopologyError, match="loop"):
            CircuitConfig.of([(1, 1)])

    def test_port_matching_validation(self):
        cfg = CircuitConfig.of([(0, 1), (0, 2), (0, 3)])
        cfg.validate(num_nodes=4, ports_per_node=3)
        with pytest.raises(TopologyError, match="transmit"):
            cfg.validate(num_nodes=4, ports_per_node=2)
        with pytest.raises(TopologyError, match="receive"):
            CircuitConfig.of([(1, 0), (2, 0), (3, 0)]).validate(4, 2)
        with pytest.raises(TopologyError, match="out of range"):
            CircuitConfig.of([(0, 9)]).validate(4, 2)

    def test_degrees_and_queries(self):
        cfg = CircuitConfig.of([(0, 1), (0, 2), (1, 2)])
        assert cfg.out_degree(0) == 2
        assert cfg.in_degree(2) == 2
        assert cfg.max_degree() == 2
        assert cfg.has_circuit(0, 1)
        assert not cfg.has_circuit(1, 0)
        assert cfg.covers([(0, 1), (1, 2)])
        assert not cfg.covers([(2, 1)])

    def test_subset_and_diff(self):
        small = CircuitConfig.of([(0, 1)])
        big = CircuitConfig.of([(0, 1), (1, 2)])
        assert small.issubset(big)
        assert not big.issubset(small)
        assert small.ports_changed(big) == 1
        assert big.ports_changed(big) == 0

    def test_ring_config(self):
        bidir = ring_circuit_config(4)
        assert bidir.covers([(0, 1), (1, 0), (3, 0), (0, 3)])
        assert bidir.max_degree() == 2
        uni = ring_circuit_config(4, bidirectional=False)
        assert uni.covers([(0, 1)])
        assert not uni.covers([(1, 0)])
        assert uni.max_degree() == 1
        with pytest.raises(TopologyError):
            ring_circuit_config(1)


class TestTopologyProgram:
    def test_validates_members(self):
        cfg = CircuitConfig.of([(0, 1), (0, 2)])
        TopologyProgram(num_nodes=3, ports_per_node=2, configs=(cfg,))
        with pytest.raises(TopologyError):
            TopologyProgram(num_nodes=3, ports_per_node=1, configs=(cfg,))

    def test_reconfiguration_accounting(self):
        ring = ring_circuit_config(4)
        other = CircuitConfig.of([(0, 2), (2, 0)])
        prog = TopologyProgram(4, 2, (ring, ring, other, other, ring))
        assert prog.num_configs == 5
        assert prog.num_reconfigurations == 2
        assert prog.reconfiguration_time(1e-3) == pytest.approx(2e-3)
        assert prog.total_ports_changed() == 2 * ring.ports_changed(other)


class TestCircuitTopology:
    def test_direct_and_multihop_routes(self):
        topo = CircuitTopology(6, ring_circuit_config(6), capacity=1e9,
                               latency=1e-9)
        assert [l.ident[:2] for l in topo.path(0, 1)] == [(0, 1)]
        assert len(topo.path(0, 3)) == 3
        assert topo.path(2, 2) == []

    def test_unreachable_raises(self):
        topo = CircuitTopology(4, CircuitConfig.of([(0, 1)]), capacity=1e9)
        with pytest.raises(TopologyError, match="no circuit path"):
            topo.path(1, 0)

    def test_routes_follow_circuits_only(self):
        cfg = CircuitConfig.of([(0, 2), (2, 1)])
        topo = CircuitTopology(3, cfg, capacity=1e9)
        assert [l.ident[:2] for l in topo.path(0, 1)] == [(0, 2), (2, 1)]


class TestDecomposition:
    def test_matching_is_single_round(self):
        pairs = [(0, 1), (1, 0), (2, 3), (3, 2)]
        for decompose in (greedy_demand_rounds, optimal_demand_rounds,
                          decompose_demand):
            rounds = decompose(pairs, 1)
            assert len(rounds) == 1
            assert sorted(rounds[0]) == sorted(pairs)

    def test_fanout_splits_by_ports(self):
        pairs = [(0, d) for d in (1, 2, 3, 4)]
        assert len(decompose_demand(pairs, 1)) == 4
        assert len(decompose_demand(pairs, 2)) == 2
        assert len(decompose_demand(pairs, 4)) == 1

    def test_empty_demand(self):
        assert decompose_demand([], 2) == []
        assert greedy_demand_rounds([], 2) == []
        assert optimal_demand_rounds([], 2) == []

    def test_bad_ports(self):
        with pytest.raises(TopologyError):
            decompose_demand([(0, 1)], 0)
        with pytest.raises(TopologyError):
            greedy_demand_rounds([(0, 1)], 0)
        with pytest.raises(TopologyError):
            optimal_demand_rounds([(0, 1)], 0)

    @settings(max_examples=120, deadline=None)
    @given(demand_pairs())
    def test_coloring_is_optimal_and_valid(self, pairs):
        colors = color_bipartite_demand(pairs)
        assert len(colors) == len(pairs)
        if pairs:
            assert max(colors) + 1 <= max_degree(pairs)
            assert min(colors) >= 0
        for c in set(colors):
            cls = [p for p, cc in zip(pairs, colors) if cc == c]
            assert len({s for s, _ in cls}) == len(cls)
            assert len({d for _, d in cls}) == len(cls)

    @settings(max_examples=120, deadline=None)
    @given(demand_pairs(), st.integers(min_value=1, max_value=3))
    def test_rounds_partition_and_respect_ports(self, pairs, ports):
        for fn in (greedy_demand_rounds, optimal_demand_rounds):
            rounds = fn(pairs, ports)
            flat = sorted(p for r in rounds for p in r)
            assert flat == sorted(pairs)
            for rnd in rounds:
                out, inn = degrees(rnd)
                assert all(v <= ports for v in out.values())
                assert all(v <= ports for v in inn.values())
        optimal = optimal_demand_rounds(pairs, ports)
        if pairs:
            assert len(optimal) == -(-max_degree(pairs) // ports)
            assert len(optimal) <= len(greedy_demand_rounds(pairs, ports))
