"""Tests for extension collectives: hierarchical ring, pipelined Wrht."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.collectives import verify_allreduce
from repro.collectives.hierarchical_ring import (
    generate_hierarchical_ring, hierarchical_ring_step_count)
from repro.collectives.schedule import TransferOp
from repro.collectives.wrht import WrhtParameters, generate_wrht
from repro.collectives.wrht_pipelined import (generate_wrht_pipelined,
                                              pipelined_step_count)
from repro.errors import ConfigurationError, ScheduleError


class TestHierarchicalRing:
    @pytest.mark.parametrize("n,g", [(8, 2), (8, 4), (16, 4), (36, 6),
                                     (12, 12), (12, 1), (24, 3)])
    def test_correct(self, n, g):
        sched = generate_hierarchical_ring(n, g)
        verify_allreduce(sched, elements_per_chunk=1)

    @pytest.mark.parametrize("n,g,steps", [(16, 4, 12), (8, 2, 8),
                                           (12, 12, 22), (12, 1, 22)])
    def test_step_count(self, n, g, steps):
        assert generate_hierarchical_ring(n, g).num_steps == steps
        assert hierarchical_ring_step_count(n, g) == steps

    def test_step_count_beats_flat_ring_at_scale(self):
        n = 64
        flat = 2 * (n - 1)
        hier = hierarchical_ring_step_count(n, 8)
        assert hier < flat

    def test_indivisible_group_rejected(self):
        with pytest.raises(ScheduleError):
            generate_hierarchical_ring(10, 4)

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_degenerate_flat_ring_claim(self, n):
        """``group_size == 1`` must be *the* flat ring: semantically an
        all-reduce, and transfer-identical to ``generate_ring_allreduce``
        step by step (the docstring's claim, pinned)."""
        from repro.collectives.ring_allreduce import generate_ring_allreduce

        sched = generate_hierarchical_ring(n, 1)
        verify_allreduce(sched, elements_per_chunk=1)
        flat = generate_ring_allreduce(n)
        assert sched.num_steps == flat.num_steps == 2 * (n - 1)
        assert sched.num_chunks == flat.num_chunks == n
        for hier_step, flat_step in zip(sched.steps, flat.steps):
            hier_t = sorted((t.src, t.dst, tuple(t.chunks), t.op)
                            for t in hier_step)
            flat_t = sorted((t.src, t.dst, tuple(t.chunks), t.op)
                            for t in flat_step)
            assert hier_t == flat_t

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_degenerate_local_only_claim(self, n):
        """``group_size == num_nodes`` must be local-only: one group,
        ``2(n-1)`` single-transfer pipeline steps, no leader ring, and
        still a correct all-reduce (the docstring's claim, pinned)."""
        sched = generate_hierarchical_ring(n, n)
        verify_allreduce(sched, elements_per_chunk=1)
        assert sched.num_steps == 2 * (n - 1)
        assert sched.num_chunks == 1
        for step in sched.steps:
            # One pipelined hop, never crossing the (single) group.
            assert len(step) == 1
            (t,) = step
            assert abs(t.src - t.dst) == 1

    def test_local_phases_use_ring_hints(self):
        sched = generate_hierarchical_ring(8, 4)
        first = sched.steps[0]
        assert all(t.direction_hint == "cw" for t in first)
        assert all(t.op is TransferOp.REDUCE for t in first)
        last = sched.steps[-1]
        assert all(t.direction_hint == "ccw" for t in last)
        assert all(t.op is TransferOp.COPY for t in last)

    @given(n=st.integers(2, 10), mult=st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_property_any_divisible_pair(self, n, mult):
        total = n * mult
        if total < 2:
            return
        sched = generate_hierarchical_ring(total, n)
        verify_allreduce(sched, elements_per_chunk=1)


class TestPipelinedWrht:
    def params(self, n=27, m=3, w=64):
        return WrhtParameters(num_nodes=n, group_size=m,
                              num_wavelengths=w, alltoall_threshold=m)

    @pytest.mark.parametrize("chunks", [1, 2, 4, 8, 16])
    def test_correct_for_any_chunking(self, chunks):
        sched, _ = generate_wrht_pipelined(self.params(), chunks)
        verify_allreduce(sched, elements_per_chunk=1)

    def test_single_chunk_equals_plain_wrht_steps(self):
        base, _ = generate_wrht(self.params())
        piped, _ = generate_wrht_pipelined(self.params(), 1)
        assert piped.num_steps == base.num_steps

    def test_step_count_formula(self):
        p = self.params()
        base, _ = generate_wrht(p)
        for c in (2, 5, 9):
            sched, _ = generate_wrht_pipelined(p, c)
            assert sched.num_steps == base.num_steps + c - 1
            assert pipelined_step_count(p, c) == sched.num_steps

    @pytest.mark.parametrize("n, m, w, shortcut", [
        (1, 2, 8, True), (2, 2, 1, True), (16, 2, 1, True),
        (27, 3, 64, False), (30, 3, 8, True), (64, 4, 2, True)])
    def test_stages_follow_the_base_schedule(self, n, m, w, shortcut):
        """Stage count and templates come from the level structure;
        they must match the generated base schedule, with or without
        the all-to-all shortcut."""
        p = WrhtParameters(num_nodes=n, group_size=m, num_wavelengths=w,
                           allow_alltoall_shortcut=shortcut)
        base, info = generate_wrht(p)
        assert info.num_steps == base.num_steps

        def rows(sched):
            return [[(t.src, t.dst, tuple(t.chunks), t.op, t.direction_hint)
                     for t in step] for step in sched.steps]

        for c in (1, 3):
            sched, piped_info = generate_wrht_pipelined(p, c)
            assert piped_info == info
            assert pipelined_step_count(p, c) == sched.num_steps
        assert rows(generate_wrht_pipelined(p, 1)[0]) == rows(base)

    def test_steady_state_concurrency(self):
        """Mid-pipeline steps run several levels at once."""
        p = self.params()
        base, _ = generate_wrht(p)
        sched, _ = generate_wrht_pipelined(p, 8)
        base_max = max(len(s) for s in base.steps)
        piped_max = max(len(s) for s in sched.steps)
        assert piped_max > base_max

    def test_transfers_carry_single_chunks(self):
        sched, _ = generate_wrht_pipelined(self.params(), 4)
        for step in sched.steps:
            for t in step:
                assert t.num_chunks_carried == 1

    def test_bad_chunk_count(self):
        with pytest.raises(ConfigurationError):
            generate_wrht_pipelined(self.params(), 0)

    @given(n=st.integers(2, 60), m=st.integers(2, 6),
           c=st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_property_pipelining_preserves_correctness(self, n, m, c):
        p = WrhtParameters(num_nodes=n, group_size=m, num_wavelengths=64,
                           alltoall_threshold=m)
        sched, _ = generate_wrht_pipelined(p, c)
        verify_allreduce(sched, elements_per_chunk=1)
