"""Tests for the baseline collective generators (ring, RD, HD, tree, a2a)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import (COLLECTIVES, STEP_COUNTS,
                               alltoall_wavelength_requirement,
                               generate_alltoall_reduce,
                               generate_binomial_tree, generate_collective,
                               generate_halving_doubling,
                               generate_recursive_doubling,
                               generate_ring_allreduce, verify_allreduce)
from repro.collectives.analysis import summarize
from repro.collectives.binomial_tree import binomial_tree_step_count
from repro.collectives.halving_doubling import halving_doubling_step_count
from repro.collectives.recursive_doubling import (
    recursive_doubling_bytes_per_node, recursive_doubling_step_count)
from repro.collectives.ring_allreduce import (ring_bytes_per_node,
                                              ring_step_count)
from repro.collectives.schedule import TransferOp
from repro.errors import ConfigurationError


class TestRingAllreduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 16, 33])
    def test_correct(self, n):
        verify_allreduce(generate_ring_allreduce(n))

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_step_count(self, n):
        sched = generate_ring_allreduce(n)
        assert sched.num_steps == ring_step_count(n) == 2 * (n - 1)

    def test_single_node_trivial(self):
        assert generate_ring_allreduce(1).num_steps == 0

    def test_every_step_is_full_permutation(self):
        sched = generate_ring_allreduce(8)
        for step in sched.steps:
            assert len(step) == 8
            assert {t.src for t in step} == set(range(8))
            assert {t.dst for t in step} == set(range(8))

    def test_all_transfers_one_hop_cw(self):
        sched = generate_ring_allreduce(8)
        for step in sched.steps:
            for t in step:
                assert t.dst == (t.src + 1) % 8
                assert t.direction_hint == "cw"

    def test_bytes_per_node_factor(self):
        n = 8
        stats = summarize(generate_ring_allreduce(n))
        assert stats.bytes_per_node_factor == pytest.approx(
            ring_bytes_per_node(1.0, n))
        assert stats.bytes_per_node_factor == pytest.approx(2 * 7 / 8)

    def test_phases_split_reduce_then_copy(self):
        sched = generate_ring_allreduce(5)
        ops = [{t.op for t in step} for step in sched.steps]
        assert all(o == {TransferOp.REDUCE} for o in ops[:4])
        assert all(o == {TransferOp.COPY} for o in ops[4:])


class TestRecursiveDoubling:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 12, 16, 100])
    def test_correct(self, n):
        verify_allreduce(generate_recursive_doubling(n))

    @pytest.mark.parametrize("n,steps", [(2, 1), (4, 2), (8, 3), (16, 4)])
    def test_pow2_step_count(self, n, steps):
        assert generate_recursive_doubling(n).num_steps == steps
        assert recursive_doubling_step_count(n) == steps

    @pytest.mark.parametrize("n", [3, 5, 6, 100])
    def test_non_pow2_adds_fold_steps(self, n):
        sched = generate_recursive_doubling(n)
        assert sched.num_steps == recursive_doubling_step_count(n)
        # fold + core + unfold
        pow2 = 1 << (n.bit_length() - 1)
        assert sched.num_steps == (pow2.bit_length() - 1) + 2

    def test_exchanges_are_symmetric(self):
        sched = generate_recursive_doubling(8)
        for step in sched.steps:
            pairs = {(t.src, t.dst) for t in step}
            assert all((d, s) in pairs for s, d in pairs)

    def test_bytes_per_node(self):
        assert recursive_doubling_bytes_per_node(10.0, 8) == pytest.approx(
            30.0)
        assert recursive_doubling_bytes_per_node(10.0, 6) == pytest.approx(
            30.0)  # 2 core steps + 1 fold


class TestHalvingDoubling:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 11, 16, 32])
    def test_correct(self, n):
        verify_allreduce(generate_halving_doubling(n))

    @pytest.mark.parametrize("n,steps", [(2, 2), (4, 4), (8, 6), (16, 8)])
    def test_pow2_step_count(self, n, steps):
        assert generate_halving_doubling(n).num_steps == steps
        assert halving_doubling_step_count(n) == steps

    def test_transfer_sizes_halve(self):
        sched = generate_halving_doubling(8)
        # reduce-scatter stage: 4, 2, 1 chunks per transfer (of 8 chunks)
        sizes = [max(t.num_chunks_carried for t in step)
                 for step in sched.steps[:3]]
        assert sizes == [4, 2, 1]

    def test_bandwidth_optimality(self):
        # Each node moves 2*(n-1)/n of the payload, like ring.
        n = 16
        stats = summarize(generate_halving_doubling(n))
        assert stats.bytes_per_node_factor == pytest.approx(2 * (n - 1) / n)


class TestBinomialTree:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 9, 16, 31])
    def test_correct(self, n):
        verify_allreduce(generate_binomial_tree(n))

    @pytest.mark.parametrize("n,steps", [(2, 2), (4, 4), (5, 6), (16, 8)])
    def test_step_count(self, n, steps):
        assert generate_binomial_tree(n).num_steps == steps
        assert binomial_tree_step_count(n) == steps

    def test_root_is_zero(self):
        sched = generate_binomial_tree(8)
        reduce_steps = [s for s in sched.steps
                        if any(t.op is TransferOp.REDUCE for t in s)]
        final_dsts = {t.dst for t in reduce_steps[-1]}
        assert final_dsts == {0}


class TestAllToAll:
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
    def test_correct(self, n):
        verify_allreduce(generate_alltoall_reduce(n))

    def test_single_step(self):
        sched = generate_alltoall_reduce(8)
        assert sched.num_steps == 1
        assert sched.num_transfers == 8 * 7

    @pytest.mark.parametrize("p,req", [(0, 0), (1, 0), (2, 1), (3, 2),
                                       (4, 2), (8, 8), (16, 32), (22, 61)])
    def test_wavelength_requirement_formula(self, p, req):
        assert alltoall_wavelength_requirement(p) == req


class TestPropertyAllBaselines:
    @given(n=st.integers(2, 40))
    @settings(max_examples=30, deadline=None)
    def test_ring_any_n(self, n):
        verify_allreduce(generate_ring_allreduce(n), elements_per_chunk=1)

    @given(n=st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_rd_any_n(self, n):
        verify_allreduce(generate_recursive_doubling(n))

    @given(n=st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_hd_any_n(self, n):
        verify_allreduce(generate_halving_doubling(n))

    @given(n=st.integers(2, 64))
    @settings(max_examples=30, deadline=None)
    def test_tree_any_n(self, n):
        verify_allreduce(generate_binomial_tree(n))


class TestRegistry:
    def test_step_counts_match_generated_schedules(self):
        assert set(STEP_COUNTS) == set(COLLECTIVES)
        for name, generate in COLLECTIVES.items():
            for n in range(1, 40):
                assert generate(n).num_steps == STEP_COUNTS[name](n), \
                    (name, n)

    def test_values_are_the_module_generators(self):
        # Code that swaps a module-level generator (tests, tracers) must
        # also catch calls made through the registry.
        assert COLLECTIVES == {
            "ring": generate_ring_allreduce,
            "recursive-doubling": generate_recursive_doubling,
            "halving-doubling": generate_halving_doubling,
            "binomial-tree": generate_binomial_tree,
        }

    def test_generate_collective(self):
        assert generate_collective("ring", 6).name \
            == generate_ring_allreduce(6).name
        with pytest.raises(ConfigurationError, match="binomial-tree"):
            generate_collective("quantum-mesh", 4)
