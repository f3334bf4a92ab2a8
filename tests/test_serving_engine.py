"""Tests for the serving engine: parity, queueing, contention, metrics."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.config import Workload
from repro.core.comparison import compare_algorithms
from repro.errors import ConfigurationError
from repro.serving import (ContentionModel, JobSpec, ServingEngine,
                           adaptive_policy, fixed_policy)
from repro.topology.ring import RingTopology


def job(i, n=8, arrival=0.0, steps=1, sizes=(1e6,), priority=0):
    return JobSpec(job_id=i, model="alexnet", arrival_time=arrival,
                   num_steps=steps, num_nodes=n, priority=priority,
                   message_sizes=sizes)


class TestEmptyAndErrors:
    def test_empty_stream(self):
        rep = ServingEngine(capacity=8).run([])
        assert rep.num_jobs == 0
        assert rep.makespan == 0.0
        assert rep.throughput_jobs == 0.0
        assert rep.jct() == rep.jct(99) == 0.0
        assert rep.max_queue_depth == 0

    def test_duplicate_ids_raise(self):
        eng = ServingEngine(capacity=8)
        with pytest.raises(ConfigurationError):
            eng.run([job(0), job(0, arrival=1.0)])

    def test_unknown_substrate_raises(self):
        with pytest.raises(ConfigurationError):
            ServingEngine(substrate_name="quantum-mesh", capacity=8)


class TestSingleJobParity:
    """A lone full-width job reproduces the standalone path bit for bit."""

    def test_ering_parity(self):
        wl = Workload(data_bytes=100e6, name="parity")
        base = compare_algorithms(8, wl, algorithms=["e-ring"],
                                  fidelity="simulate").time("e-ring")
        rep = ServingEngine(capacity=8,
                            collectives=fixed_policy("ring")).run(
            [job(0, sizes=(100e6,))])
        assert rep.records[0].service_time == base

    def test_oring_parity(self):
        wl = Workload(data_bytes=100e6, name="parity")
        base = compare_algorithms(8, wl, algorithms=["o-ring"],
                                  fidelity="simulate").time("o-ring")
        rep = ServingEngine(substrate_name="optical-ring", capacity=8,
                            collectives=fixed_policy("ring"),
                            substrate_options={"striping": "off"}).run(
            [job(0, sizes=(100e6,))])
        assert rep.records[0].service_time == base

    def test_steps_scale_service_time_exactly(self):
        one = ServingEngine(capacity=8, collectives=fixed_policy("ring")
                            ).run([job(0, steps=1)])
        five = ServingEngine(capacity=8, collectives=fixed_policy("ring")
                             ).run([job(0, steps=5)])
        assert five.records[0].service_time == pytest.approx(
            5 * one.records[0].service_time)


class TestQueueingAndPolicies:
    def test_admission_beyond_capacity_queues_not_drops(self):
        jobs = [job(i, n=8, steps=2) for i in range(4)]
        rep = ServingEngine(capacity=8).run(jobs)
        assert rep.num_jobs == 4
        assert rep.max_queue_depth == 3
        ends = [r.completion_time for r in rep.records]
        assert ends == sorted(ends)
        # Sequential occupancy: each waits for the previous.
        waits = {r.job.job_id: r.wait_time for r in rep.records}
        assert waits[0] == 0.0
        assert waits[1] > 0.0 and waits[3] > waits[1]

    def test_sjf_reorders_queue(self):
        # Long job arrives first; under SJF the two short jobs that
        # queued behind it jump ahead when capacity frees.
        jobs = [job(0, n=8, steps=1, sizes=(64e6,)),
                job(1, n=8, steps=30, sizes=(64e6,), arrival=1e-6),
                job(2, n=8, steps=1, sizes=(64e6,), arrival=2e-6)]
        fifo = ServingEngine(capacity=8, policy="fifo").run(jobs)
        sjf = ServingEngine(capacity=8, policy="sjf").run(jobs)
        fifo_order = [r.job.job_id for r in fifo.records]
        sjf_order = [r.job.job_id for r in sjf.records]
        assert fifo_order == [0, 1, 2]
        assert sjf_order == [0, 2, 1]
        assert sjf.jct() < fifo.jct()

    def test_priority_jumps_queue(self):
        jobs = [job(0, n=8, steps=20),
                job(1, n=8, steps=20, arrival=1e-6, priority=0),
                job(2, n=8, steps=20, arrival=2e-6, priority=5)]
        rep = ServingEngine(capacity=8, policy="priority").run(jobs)
        order = [r.job.job_id for r in rep.records]
        assert order == [0, 2, 1]

    def test_run_is_deterministic(self):
        jobs = [job(i, n=4, arrival=i * 1e-4, steps=3) for i in range(6)]
        a = ServingEngine(capacity=8).run(jobs)
        b = ServingEngine(capacity=8).run(jobs)
        assert [(r.job.job_id, r.completion_time) for r in a.records] \
            == [(r.job.job_id, r.completion_time) for r in b.records]


class TestAdaptiveDispatch:
    def test_mix_follows_message_sizes(self):
        jobs = [job(0, sizes=(64e3,), steps=2),        # small -> rd
                job(1, sizes=(64e6,), steps=2),        # large -> ring
                job(2, sizes=(64e3, 64e6), steps=2)]   # one of each
        rep = ServingEngine(capacity=8,
                            collectives=adaptive_policy()).run(jobs)
        assert rep.algorithm_mix == {"recursive-doubling": 2, "ring": 2}
        per_job = {r.job.job_id: r.algorithms for r in rep.records}
        assert per_job[0] == ("recursive-doubling",)
        assert per_job[1] == ("ring",)
        assert per_job[2] == ("recursive-doubling", "ring")

    def test_wrht_arm_on_optical_ring(self):
        eng = ServingEngine(substrate_name="optical-ring", capacity=8,
                            collectives=fixed_policy("wrht"))
        rep = eng.run([job(0, sizes=(64e6,))])
        assert rep.algorithm_mix == {"wrht": 1}
        assert rep.records[0].service_time > 0.0

    def test_wrht_arm_needs_optical(self):
        eng = ServingEngine(capacity=8, collectives=fixed_policy("wrht"))
        with pytest.raises(ConfigurationError):
            eng.run([job(0)])


class TestContention:
    def test_overlapping_flows_slow_down(self):
        # Hand-built: two jobs' flows share link (4,5) on a 16-ring.
        model = ContentionModel(RingTopology(16, 1.0, bidirectional=True))
        slow = model.slowdowns({0: [(3, 6, 1e6)], 1: [(4, 7, 1e6)]})
        assert slow[0] > 1.0 and slow[1] > 1.0

    def test_disjoint_arcs_do_not_interfere(self):
        model = ContentionModel(RingTopology(16, 1.0, bidirectional=True))
        slow = model.slowdowns({0: [(0, 3, 1e6)], 1: [(8, 11, 1e6)]})
        assert slow == {0: 1.0, 1: 1.0}

    def test_lone_job_slowdown_is_exactly_one(self):
        model = ContentionModel(RingTopology(16, 1.0, bidirectional=True))
        assert model.slowdowns({0: [(0, 9, 1e6)]}) == {0: 1.0}

    def test_scatter_placement_creates_interference(self):
        # Fill a 16-ring with four 4-node jobs; the outer two finish,
        # then an 8-node job arrives.  Contiguous mode queues it;
        # scatter mode runs it on fragments whose ring routes cross the
        # survivors' arcs — both it and the survivors slow down.
        short = [job(i, n=4, steps=2, sizes=(32e6,)) for i in (0, 2)]
        long_ = [job(i, n=4, steps=40, sizes=(32e6,)) for i in (1, 3)]
        wide = job(9, n=8, steps=4, sizes=(32e6,), arrival=0.01)
        jobs = [short[0], long_[0], short[1], long_[1], wide]

        runs = {}
        for mode in ("contiguous", "scatter"):
            rep = ServingEngine(capacity=16, placement=mode,
                                collectives=fixed_policy("ring")).run(jobs)
            runs[mode] = {r.job.job_id: r for r in rep.records}
        cont, scat = runs["contiguous"], runs["scatter"]
        # Scatter admits immediately on fragments; contiguous waits.
        assert cont[9].wait_time > 0.0
        assert scat[9].wait_time == 0.0
        assert not (scat[9].nodes[-1] - scat[9].nodes[0] + 1
                    == len(scat[9].nodes))
        # Interference is real: the scattered job runs slower than its
        # contiguous service time, and the untouched long jobs slow too.
        assert scat[9].service_time > cont[9].service_time
        assert scat[1].service_time > cont[1].service_time
        # ... but it still wins on JCT (that is the trade).
        assert scat[9].completion < cont[9].completion


class TestEventLoopTerminates:
    def test_sub_ulp_remaining_time_completes(self):
        # One ~11 us step at t = 1e4: after the first advance the job's
        # remaining time is below half an ulp of `now`, so its next
        # completion event is `now` itself and the clock cannot move.
        # A subprocess with a timeout turns a spinning loop into a
        # failure instead of a hung suite.
        code = textwrap.dedent("""
            from repro.serving import ServingEngine, trace_traffic
            jobs = trace_traffic([dict(
                model="alexnet", arrival_time=1e4, num_steps=1,
                num_nodes=2, message_sizes=(17e3,))])
            rep = ServingEngine("electrical-ring", capacity=4).run(jobs)
            print(repr(rep.records[0].completion_time))
        """)
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parent.parent))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "10000.00001136"


class TestReportMetrics:
    def test_headline_fields_consistent(self):
        jobs = [job(i, n=4, arrival=i * 1e-3, steps=2) for i in range(5)]
        rep = ServingEngine(capacity=8).run(jobs)
        h = rep.headline()
        assert h["jobs"] == 5.0
        assert h["steps"] == 10.0
        assert h["throughput_jobs_per_s"] == pytest.approx(
            5.0 / rep.makespan)
        assert h["jct_p50_s"] <= h["jct_p99_s"]
        assert rep.jct(0) <= rep.jct() <= rep.jct(100)

    def test_cache_stats_present_and_warm(self):
        jobs = [job(i, n=4, arrival=i * 1e-3, steps=3) for i in range(6)]
        rep = ServingEngine(capacity=8).run(jobs)
        assert rep.cache_stats
        assert any(row["hits"] > 0 for row in rep.cache_stats.values())

    def test_records_in_completion_order(self):
        jobs = [job(i, n=8, steps=2) for i in range(3)]
        rep = ServingEngine(capacity=8).run(jobs)
        ends = [(r.completion_time, r.job.job_id) for r in rep.records]
        assert ends == sorted(ends)
