"""Tests for the online scheduler, queue policies, and dispatch."""

import pytest

from repro import units
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.errors import ConfigurationError
from repro.serving import (CollectivePolicy, JobSpec, OnlineScheduler,
                           adaptive_policy, fixed_policy, place_schedule,
                           policy_key)


def job(i, n=4, arrival=0.0, steps=1, priority=0, nbytes=1e6):
    return JobSpec(job_id=i, model="alexnet", arrival_time=arrival,
                   num_steps=steps, num_nodes=n, priority=priority,
                   message_sizes=(nbytes,))


class TestScheduler:
    def test_first_fit_is_contiguous_and_lowest(self):
        s = OnlineScheduler(capacity=16)
        p0 = s.submit(job(0, n=4), 0.0)
        p1 = s.submit(job(1, n=8), 0.0)
        assert p0.nodes == (0, 1, 2, 3)
        assert p1.nodes == (4, 5, 6, 7, 8, 9, 10, 11)
        assert s.free_nodes == 4

    def test_beyond_capacity_queues_never_drops(self):
        s = OnlineScheduler(capacity=8)
        assert s.submit(job(0, n=8), 0.0) is not None
        assert s.submit(job(1, n=8), 0.0) is None
        assert s.submit(job(2, n=4), 0.0) is None
        assert s.queue_depth == 2

    def test_wider_than_substrate_raises(self):
        s = OnlineScheduler(capacity=8)
        with pytest.raises(ConfigurationError):
            s.submit(job(0, n=16), 0.0)

    def test_release_coalesces_and_readmits(self):
        s = OnlineScheduler(capacity=8)
        p0 = s.submit(job(0, n=4), 0.0)
        p1 = s.submit(job(1, n=4), 0.0)
        s.submit(job(2, n=8), 0.0)  # queued
        s.release(p0)
        assert s.admit_from_queue(1.0) == []  # 4 free: 8-wide still waits
        s.release(p1)
        placed = s.admit_from_queue(2.0)
        assert [p.job.job_id for p in placed] == [2]
        assert placed[0].nodes == tuple(range(8))

    def test_double_release_raises(self):
        s = OnlineScheduler(capacity=8)
        p = s.submit(job(0, n=4), 0.0)
        s.release(p)
        with pytest.raises(ConfigurationError):
            s.release(p)

    def test_head_of_line_honest(self):
        # A wide queued job blocks later narrow ones under FIFO, so the
        # wide job is never starved.
        s = OnlineScheduler(capacity=8)
        s.submit(job(0, n=8), 0.0)
        s.submit(job(1, n=8, arrival=1.0), 1.0)
        s.submit(job(2, n=2, arrival=2.0), 2.0)
        assert s.admit_from_queue(3.0) == []

    def test_no_bypass_when_free_capacity_fits_later_arrival(self):
        # Free capacity (4 nodes) fits the later narrow arrival but not
        # the queued wide head: under FIFO the narrow job must queue
        # behind it, not slip past via direct allocation.
        s = OnlineScheduler(capacity=8)
        assert s.submit(job(0, n=4), 0.0) is not None
        assert s.submit(job(1, n=8, arrival=1.0), 1.0) is None
        assert s.submit(job(2, n=4, arrival=2.0), 2.0) is None
        assert s.admit_from_queue(2.0) == []
        assert s.queue_depth == 2
        # A sustained narrow stream still cannot starve the wide head.
        assert s.submit(job(3, n=2, arrival=3.0), 3.0) is None
        assert s.admit_from_queue(3.0) == []

    def test_sjf_reorders_queue_on_admission(self):
        # Same scenario under SJF: policy order (not arrival order)
        # decides, so the short narrow job legitimately overtakes the
        # wide long one via admit_from_queue.
        s = OnlineScheduler(capacity=8, policy="sjf")
        assert s.submit(job(0, n=4, steps=1), 0.0) is not None
        assert s.submit(job(1, n=8, arrival=1.0, steps=100), 1.0) is None
        assert s.submit(job(2, n=4, arrival=2.0, steps=1), 2.0) is None
        placed = s.admit_from_queue(2.0)
        assert [p.job.job_id for p in placed] == [2]

    def test_scatter_gathers_fragments(self):
        s = OnlineScheduler(capacity=16, placement_mode="scatter")
        p0 = s.submit(job(0, n=4), 0.0)
        s.submit(job(1, n=4), 0.0)
        p2 = s.submit(job(2, n=4), 0.0)
        s.submit(job(3, n=4), 0.0)
        s.release(p0)
        s.release(p2)
        p4 = s.submit(job(4, n=8), 1.0)
        assert p4.nodes == (0, 1, 2, 3, 8, 9, 10, 11)
        assert not p4.is_contiguous

    def test_contiguous_mode_queues_fragmented_fit(self):
        s = OnlineScheduler(capacity=16)
        p0 = s.submit(job(0, n=4), 0.0)
        s.submit(job(1, n=4), 0.0)
        p2 = s.submit(job(2, n=4), 0.0)
        s.submit(job(3, n=4), 0.0)
        s.release(p0)
        s.release(p2)
        assert s.submit(job(4, n=8), 1.0) is None
        assert s.queue_depth == 1


class TestPolicies:
    def test_fifo_orders_by_arrival_then_id(self):
        jobs = [job(2, arrival=1.0), job(0, arrival=1.0), job(1, arrival=0.5)]
        assert [j.job_id for j in sorted(jobs, key=policy_key("fifo"))] \
            == [1, 0, 2]

    def test_sjf_orders_by_work(self):
        jobs = [job(0, steps=10, nbytes=1e6), job(1, steps=1, nbytes=1e6),
                job(2, steps=2, nbytes=1e6)]
        assert [j.job_id for j in sorted(jobs, key=policy_key("sjf"))] \
            == [1, 2, 0]

    def test_priority_descends_then_fifo(self):
        jobs = [job(0, priority=0), job(1, priority=2), job(2, priority=2)]
        assert [j.job_id for j in sorted(jobs, key=policy_key("priority"))] \
            == [1, 2, 0]

    def test_tie_breaks_are_deterministic(self):
        # Identical jobs except id: every policy falls back to job_id.
        for name in ("fifo", "sjf", "priority"):
            jobs = [job(3), job(1), job(2)]
            assert [j.job_id for j in sorted(jobs, key=policy_key(name))] \
                == [1, 2, 3]

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            policy_key("lifo")


class TestCollectivePolicy:
    def test_adaptive_switch_threshold(self):
        p = adaptive_policy(switch_bytes=1 * units.MB)
        assert p.select(1 * units.MB - 1) == "recursive-doubling"
        assert p.select(1 * units.MB) == "ring"
        assert p.is_adaptive

    def test_fixed_policy_ignores_size(self):
        p = fixed_policy("ring")
        assert p.select(1.0) == p.select(1e12) == "ring"
        assert not p.is_adaptive

    def test_wrht_is_a_valid_arm(self):
        p = CollectivePolicy(small_algorithm="recursive-doubling",
                             large_algorithm="wrht")
        assert p.select(1e9) == "wrht"

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ConfigurationError):
            fixed_policy("butterfly")

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_bad_switch_bytes_raises(self, bad):
        with pytest.raises(ConfigurationError, match="switch_bytes"):
            adaptive_policy(switch_bytes=bad)


class TestPlaceSchedule:
    def test_identity_returns_same_object(self):
        sched = generate_ring_allreduce(8)
        assert place_schedule(sched, range(8), 8) is sched

    def test_contiguous_offset_shifts_endpoints(self):
        sched = generate_ring_allreduce(4)
        placed = place_schedule(sched, (3, 4, 5, 6), 16)
        assert placed.num_nodes == 16
        nodes = {e for step in placed.steps for t in step
                 for e in (t.src, t.dst)}
        assert nodes == {3, 4, 5, 6}

    def test_scattered_mapping(self):
        sched = generate_ring_allreduce(4)
        placed = place_schedule(sched, (0, 1, 8, 9), 16)
        nodes = {e for step in placed.steps for t in step
                 for e in (t.src, t.dst)}
        assert nodes == {0, 1, 8, 9}

    def test_rejects_bad_placements(self):
        sched = generate_ring_allreduce(4)
        with pytest.raises(ConfigurationError):
            place_schedule(sched, (0, 1, 2), 16)       # wrong width
        with pytest.raises(ConfigurationError):
            place_schedule(sched, (0, 1, 2, 2), 16)    # repeated node
        with pytest.raises(ConfigurationError):
            place_schedule(sched, (13, 14, 15, 16), 16)  # out of range
