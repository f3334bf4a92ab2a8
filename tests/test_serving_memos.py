"""Differential tests for the serving layer's memoized paths.

* The heap-ordered wait queue of :class:`OnlineScheduler` against a
  reference that keeps the queue as a plain list, re-sorts it by the
  policy key on every admission scan and edits it with ``list.remove``:
  placements, ``queued_jobs()`` order and ``queue_depth`` must agree
  after every operation of any submit / admit / release / fail /
  restore sequence.
* The solo-makespan memo of :class:`ContentionModel`: repeated and
  interleaved ``slowdowns`` calls equal a fresh model's answer exactly.
* The engine's per-sizing-key message-size memo: sizes are resolved
  once per :attr:`JobSpec.sizing_key` per engine.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serving.jobs as jobs_mod
from repro.serving import (ContentionModel, JobSpec, OnlineScheduler,
                           Placement, ServingEngine, available_policies)
from repro.topology.ring import RingTopology

CAPACITY = 16


class ListQueueScheduler(OnlineScheduler):
    """Reference: the wait queue as a list, sorted on every admit."""

    def __post_init__(self) -> None:
        super().__post_init__()
        self._waiting = []

    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    def queued_jobs(self):
        return sorted(self._waiting, key=self._key)

    def submit(self, job, now):
        nodes = self._allocate(job.num_nodes) if not self._waiting else None
        if nodes is None:
            self._waiting.append(job)
            return None
        return Placement(job=job, nodes=nodes, start_time=now)

    def admit_from_queue(self, now):
        placed = []
        for head in sorted(self._waiting, key=self._key):
            nodes = self._allocate(head.num_nodes)
            if nodes is None:
                break
            self._waiting.remove(head)
            placed.append(Placement(job=head, nodes=nodes, start_time=now))
        return placed


# Few distinct values per field, so policy keys tie often (and a
# repeated job id makes whole keys equal).
_jobs = st.builds(
    lambda jid, width, arrival, priority, steps, nbytes: JobSpec(
        job_id=jid, model="alexnet", arrival_time=arrival,
        num_steps=steps, num_nodes=width, priority=priority,
        message_sizes=(nbytes,)),
    st.integers(0, 5), st.integers(2, CAPACITY),
    st.sampled_from([0.0, 1.0, 2.0]), st.integers(0, 2),
    st.integers(1, 3), st.sampled_from([1e3, 3e3]))

_ops = st.lists(st.one_of(
    st.tuples(st.just("submit"), _jobs),
    st.tuples(st.sampled_from(["admit", "release", "fail", "restore"]),
              st.integers(0, CAPACITY - 1))), max_size=80)


class TestHeapQueueMatchesSortedList:
    @pytest.mark.parametrize("mode", ["contiguous", "scatter"])
    @pytest.mark.parametrize("policy", available_policies())
    @settings(max_examples=40, deadline=None)
    @given(ops=_ops)
    def test_every_operation_agrees(self, policy, mode, ops):
        heap = OnlineScheduler(capacity=CAPACITY, policy=policy,
                               placement_mode=mode)
        ref = ListQueueScheduler(capacity=CAPACITY, policy=policy,
                                 placement_mode=mode)
        running = []
        for now, (op, arg) in enumerate(ops):
            if op == "submit":
                got = heap.submit(arg, float(now))
                assert got == ref.submit(arg, float(now))
                placed = [got] if got is not None else []
            elif op == "admit":
                placed = heap.admit_from_queue(float(now))
                assert placed == ref.admit_from_queue(float(now))
            elif op == "release":
                placed = []
                if running:
                    p = running.pop(arg % len(running))
                    heap.release(p)
                    ref.release(p)
            elif op == "fail":
                # The engine's contract: kill placements on the node
                # first, then withdraw it.
                placed = []
                for p in [p for p in running if arg in p.nodes]:
                    running.remove(p)
                    heap.release(p)
                    ref.release(p)
                heap.fail_nodes([arg])
                ref.fail_nodes([arg])
            else:
                placed = []
                heap.restore_nodes([arg])
                ref.restore_nodes([arg])
            running.extend(placed)
            assert heap.queue_depth == ref.queue_depth
            assert heap.queued_jobs() == ref.queued_jobs()
            assert heap._free == ref._free
            heap.check_conservation()

    def test_equal_keys_keep_submission_order(self):
        s = OnlineScheduler(capacity=4)
        s.submit(JobSpec(0, "alexnet", 0.0, num_nodes=4,
                         message_sizes=(1e3,)), 0.0)
        twins = [JobSpec(7, "alexnet", 1.0, num_nodes=w,
                         message_sizes=(1e3,)) for w in (4, 2, 3)]
        for j in twins:
            assert s.submit(j, 1.0) is None
        assert s.queued_jobs() == twins


_RING = RingTopology(CAPACITY, 1.0, bidirectional=True)


@st.composite
def _job_flows(draw):
    """Four jobs on disjoint node sets, each with a few flows."""
    nodes = draw(st.permutations(range(CAPACITY)))
    flows = {}
    for jid in range(4):
        group = nodes[4 * jid:4 * jid + 4]
        pairs = draw(st.lists(
            st.tuples(st.sampled_from(group), st.sampled_from(group),
                      st.sampled_from([1e5, 1e6, 4e6])),
            max_size=4))
        flows[jid] = [(s, d, z) for s, d, z in pairs if s != d]
    return flows


class TestSoloMemoMatchesFreshModel:
    @settings(max_examples=40, deadline=None)
    @given(flows=_job_flows(),
           epochs=st.lists(st.sets(st.integers(0, 3), min_size=1),
                           min_size=1, max_size=8))
    def test_repeated_and_interleaved_calls(self, flows, epochs):
        model = ContentionModel(_RING)
        for epoch in epochs + epochs[:1]:
            batch = {jid: flows[jid] for jid in sorted(epoch)}
            assert model.slowdowns(batch) == \
                ContentionModel(_RING).slowdowns(batch)


class TestSizingMemo:
    def test_sizing_key_names_what_sizes_depend_on(self):
        a = JobSpec(0, "alexnet", 0.0)
        assert JobSpec(1, "alexnet", 5.0, num_nodes=4).sizing_key == \
            a.sizing_key
        assert JobSpec(2, "alexnet", 0.0, dtype_bytes=2).sizing_key != \
            a.sizing_key
        explicit = [JobSpec(i, m, 0.0, message_sizes=(1e3, 2e3))
                    for i, m in enumerate(("alexnet", "vgg16"))]
        assert explicit[0].sizing_key == explicit[1].sizing_key
        assert explicit[0].sizing_key != a.sizing_key

    def test_sizes_resolve_once_per_key_per_engine(self, monkeypatch):
        calls = []
        real = jobs_mod.allreduce_message_sizes

        def counting(model, **kwargs):
            calls.append(model.name)
            return real(model, **kwargs)

        monkeypatch.setattr(jobs_mod, "allreduce_message_sizes", counting)

        def stream():
            return [JobSpec(i, ("alexnet", "googlenet")[i % 2], i * 1e-3,
                            num_nodes=4) for i in range(6)]

        engine = ServingEngine(capacity=8)
        assert engine.run(stream()).num_jobs == 6
        assert sorted(calls) == ["alexnet", "googlenet"]
        engine.run(stream())
        assert len(calls) == 2
        ServingEngine(capacity=8).run(stream())
        assert len(calls) == 4
