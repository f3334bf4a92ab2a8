"""Tests for retrying serving under failures.

The contract: jobs are never lost (completed + failed == submitted),
capacity is never leaked (free + allocated + failed == capacity after
every mutation — also as a hypothesis property over arbitrary
interleavings), and the zero-fault path is bit-for-bit the plain run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ScheduleError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.serving import (JobSpec, OnlineScheduler, RetryPolicy,
                           ServingEngine, poisson_traffic)


def job(job_id, n=4, arrival=0.0, steps=3):
    return JobSpec(job_id=job_id, model="unit", num_nodes=n,
                   arrival_time=arrival, num_steps=steps,
                   message_sizes=(1 << 20,))


def ev(time, kind, **kw):
    return FaultEvent(time=time, kind=kind, **kw)


def mix(num_jobs=30, seed=3, rate=100.0):
    return poisson_traffic(num_jobs=num_jobs, arrival_rate=rate, seed=seed,
                           node_choices=(4, 8))


class TestZeroFaultParity:
    def test_none_plan_is_bit_for_bit(self):
        jobs = mix()
        ref = ServingEngine(capacity=16).run(jobs)
        rep = ServingEngine(capacity=16).run(jobs, faults=FaultPlan.none(),
                                             retry=RetryPolicy())
        assert [(r.job.job_id, r.nodes, r.start_time, r.completion_time)
                for r in ref.records] == \
               [(r.job.job_id, r.nodes, r.start_time, r.completion_time)
                for r in rep.records]
        assert rep.preemptions == 0
        assert rep.retries == 0
        assert rep.availability == 1.0
        assert not rep.failed_jobs


class TestFaultyServing:
    def _plan(self, makespan):
        return FaultPlan.of([
            ev(makespan * 0.1, FaultKind.NODE_DOWN, node=3),
            ev(makespan * 0.3, FaultKind.NODE_UP, node=3),
            ev(makespan * 0.5, FaultKind.LINK_DOWN, link=(8, 9)),
            ev(makespan * 0.7, FaultKind.LINK_UP, link=(8, 9)),
        ])

    def test_no_job_lost_no_capacity_leaked(self):
        jobs = mix()
        ref = ServingEngine(capacity=16).run(jobs)
        rep = ServingEngine(capacity=16).run(
            jobs, faults=self._plan(ref.makespan),
            retry=RetryPolicy(max_retries=5, backoff=1e-4))
        completed = {r.job.job_id for r in rep.records}
        failed = {j.job_id for j in rep.failed_jobs}
        assert completed | failed == {j.job_id for j in jobs}
        assert not completed & failed
        assert rep.preemptions >= 1
        assert rep.node_downtime > 0
        assert 0 < rep.availability < 1.0

    def test_restarted_jobs_record_attempts(self):
        jobs = mix()
        ref = ServingEngine(capacity=16).run(jobs)
        rep = ServingEngine(capacity=16).run(
            jobs, faults=self._plan(ref.makespan),
            retry=RetryPolicy(max_retries=5, backoff=1e-4))
        restarted = [r for r in rep.records if r.attempts > 0]
        assert len(restarted) + len(rep.failed_jobs) > 0
        for r in restarted:
            assert r.attempts <= 5

    def test_deterministic_replay(self):
        jobs = mix()
        plan = FaultPlan.poisson(duration=2.0, num_nodes=16, seed=9,
                                 link_rate=4.0, node_rate=4.0,
                                 mean_repair=0.05)
        a = ServingEngine(capacity=16).run(jobs, faults=plan,
                                           retry=RetryPolicy())
        b = ServingEngine(capacity=16).run(jobs, faults=plan,
                                           retry=RetryPolicy())
        assert [(r.job.job_id, r.completion_time, r.attempts)
                for r in a.records] == \
               [(r.job.job_id, r.completion_time, r.attempts)
                for r in b.records]
        assert a.preemptions == b.preemptions

    def test_retry_exhaustion_fails_job_out(self):
        # a job pinned to width 16 on a 16-node fabric dies every time
        # node 0 fails; with a fast-cycling fault it exhausts retries
        jobs = [job(0, n=16, steps=50)]
        events = []
        for i in range(6):
            events.append(ev(0.01 + 0.02 * i, FaultKind.NODE_DOWN, node=0))
            events.append(ev(0.02 + 0.02 * i, FaultKind.NODE_UP, node=0))
        rep = ServingEngine(capacity=16).run(
            jobs, faults=FaultPlan.of(events),
            retry=RetryPolicy(max_retries=2, backoff=1e-4))
        assert [j.job_id for j in rep.failed_jobs] == [0]
        assert not rep.records
        assert rep.preemptions == 3  # initial + 2 retries, all killed

    def test_permanent_partition_stalls_loudly(self):
        # every node down forever, job still queued -> typed error, not
        # an infinite loop
        jobs = [job(0, n=4, arrival=0.5)]
        events = [ev(0.0, FaultKind.NODE_DOWN, node=n) for n in range(16)]
        with pytest.raises(ScheduleError):
            ServingEngine(capacity=16).run(
                jobs, faults=FaultPlan.of(events),
                retry=RetryPolicy(max_retries=1))

    def test_thousand_job_stream_under_faults(self):
        """The acceptance bar: a 1000-job stream with injected link
        failures completes every job — none lost, none leaked."""
        jobs = poisson_traffic(num_jobs=1000, arrival_rate=400.0, seed=0,
                               node_choices=(4, 8))
        plan = FaultPlan.poisson(duration=10.0, num_nodes=32, seed=1,
                                 link_rate=2.0, mean_repair=0.02)
        rep = ServingEngine(capacity=32).run(
            jobs, faults=plan, retry=RetryPolicy(max_retries=8,
                                                 backoff=1e-4))
        completed = {r.job.job_id for r in rep.records}
        failed = {j.job_id for j in rep.failed_jobs}
        assert completed | failed == {j.job_id for j in jobs}
        assert not completed & failed
        assert len(completed) + len(failed) == 1000


class TestSchedulerFailureMasking:
    def test_failed_nodes_leave_free_pool(self):
        s = OnlineScheduler(capacity=8, placement_mode="scatter")
        s.fail_nodes([2, 3])
        assert s.free_nodes == 6
        assert s.failed_nodes == 2
        s.check_conservation()
        p = s.submit(job(0, n=6), 0.0)
        assert p is not None
        assert set(p.nodes).isdisjoint({2, 3})

    def test_cannot_fail_allocated_node(self):
        s = OnlineScheduler(capacity=8)
        p = s.submit(job(0, n=4), 0.0)
        assert p is not None
        with pytest.raises(ConfigurationError):
            s.fail_nodes([p.nodes[0]])

    def test_restore_is_idempotent_and_reusable(self):
        s = OnlineScheduler(capacity=8, placement_mode="scatter")
        s.fail_nodes([0, 1, 2, 3])
        s.restore_nodes([0, 1])
        s.restore_nodes([0, 1])  # idempotent
        s.check_conservation()
        assert s.free_nodes == 6
        p = s.submit(job(0, n=6), 0.0)
        assert p is not None

    def test_fail_out_of_range_rejected(self):
        s = OnlineScheduler(capacity=8)
        with pytest.raises(ConfigurationError):
            s.fail_nodes([8])


class TestCapacityConservationProperty:
    """Hypothesis: any interleaving of submit/admit/fail/release/restore
    keeps free + allocated + failed == capacity."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["submit", "release", "fail",
                                               "restore", "admit"]),
                              st.integers(0, 15)),
                    min_size=1, max_size=60),
           st.sampled_from(["contiguous", "scatter"]))
    def test_conservation_invariant(self, ops, mode):
        cap = 16
        s = OnlineScheduler(capacity=cap, placement_mode=mode)
        placements = []
        jid = 0
        for op, arg in ops:
            if op == "submit":
                width = 2 + arg % (cap - 1)
                p = s.submit(job(jid, n=width), 0.0)
                jid += 1
                if p is not None:
                    placements.append(p)
            elif op == "release" and placements:
                s.release(placements.pop(arg % len(placements)))
            elif op == "fail":
                node = arg % cap
                allocated = {n for p in placements for n in p.nodes}
                # kill placements touching the node first (the engine's
                # contract), then fail it
                if node in allocated:
                    for p in [p for p in placements if node in p.nodes]:
                        placements.remove(p)
                        s.release(p)
                s.fail_nodes([node])
            elif op == "restore":
                s.restore_nodes([arg % cap])
            elif op == "admit":
                for p in s.admit_from_queue(0.0):
                    placements.append(p)
            s.check_conservation()
            assert s.free_nodes + s.allocated_nodes + s.failed_nodes == cap

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(2, 8), min_size=1, max_size=20))
    def test_release_returns_exact_nodes(self, widths):
        s = OnlineScheduler(capacity=16, placement_mode="scatter")
        placements = []
        for i, w in enumerate(widths):
            p = s.submit(job(i, n=w), 0.0)
            if p is not None:
                placements.append(p)
        for p in placements:
            s.release(p)
        s.check_conservation()
        # queue may still hold jobs, but all *nodes* are back
        assert s.free_nodes == 16
        assert s.allocated_nodes == 0


class TestServeCliValidation:
    """Satellite: bad serve flags fail fast with a named flag."""

    @pytest.mark.parametrize("argv,needle", [
        (["serve", "--rate", "nan"], "--rate"),
        (["serve", "--rate", "-5"], "--rate"),
        (["serve", "--seed", "-1"], "--seed"),
        (["serve", "--duration", "0"], "--duration"),
        (["serve", "--duration", "inf"], "--duration"),
        (["serve", "--faults", "nan"], "--faults"),
        (["serve", "--mttr", "0"], "--mttr"),
        (["serve", "--max-retries", "-2"], "--max-retries"),
        (["serve", "--capacity", "1"], "--capacity"),
        (["serve", "--jobs", "0"], "--jobs"),
    ])
    def test_bad_flag_fails_fast(self, argv, needle, capsys):
        from repro.cli import main
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro serve: ") and needle in err

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_switch_bytes_prints_one_line(self, value, capsys):
        from repro.cli import main
        assert main(["serve", "--switch-bytes", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro serve: ")
        assert "switch_bytes" in lines[0]

    def test_faulty_serve_smoke(self, capsys):
        from repro.cli import main
        rc = main(["serve", "--jobs", "10", "--rate", "200",
                   "--capacity", "8", "--faults", "10", "--duration",
                   "0.5", "--mttr", "0.01"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "availability" in out
