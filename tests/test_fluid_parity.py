"""Property-based parity: incremental fluid engine vs the frozen oracle.

The incremental engine (compiled batch + vectorized event loop) must
reproduce the pre-refactor per-event implementation
(``tests/fluid_oracle.py``) **bit-for-bit** — same delivery
times, same result order — on randomized flow sets with overlapping
paths, staggered starts, and congested links; and every intermediate
allocation it computes must be a feasible max-min allocation
(:func:`repro.simulation.flows.validate_allocation`).

Two further parity axes are pinned here:

* **mid-flight admissions** — staggered starts (the incast staircase
  and random admission schedules) must match the oracle exactly;
* **sparse vs dense** — the scipy CSR incidence backend must agree
  with the dense one (documented tolerance 1e-12 relative; in practice
  — and asserted here — exactly, since 0/1 incidence keeps every link
  count an exact small integer), and environments without scipy must
  degrade gracefully to dense.  The backend follows the batch size, so
  these tests pick one by patching ``SPARSE_FLOW_THRESHOLD``.
"""

import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.simulation import flows as flows_mod
from repro.simulation.flows import (Flow, compile_flows, compile_paths,
                                    have_sparse, max_min_fair_rates,
                                    progressive_fill, resolve_backend,
                                    validate_allocation)
from repro.simulation.fluid import FluidNetworkSimulator
from repro.topology.ring import RingTopology
from repro.topology.switched import FatTree, SwitchedStar
from fluid_oracle import ReferenceFluidSimulator, reference_max_min_fair_rates

needs_scipy = pytest.mark.skipif(not have_sparse(),
                                 reason="scipy not installed")


def _backend(name):
    """Patch the sparse threshold so every batch compiles on ``name``."""
    return mock.patch.object(flows_mod, "SPARSE_FLOW_THRESHOLD",
                             0 if name == "sparse" else sys.maxsize)


def _compile(paths, capacities, name):
    """:func:`compile_paths` on backend ``name``."""
    with _backend(name):
        return compile_paths(paths, capacities)


@st.composite
def topology_and_flows(draw):
    """A random topology plus a random batch of flow specs on it."""
    kind = draw(st.sampled_from(["ring", "star", "fat"]))
    n = draw(st.integers(3, 10))
    cap = draw(st.floats(0.5, 100.0))
    latency = draw(st.sampled_from([0.0, 1e-6, 5e-4]))
    if kind == "ring":
        topo = RingTopology(n, capacity=cap, latency=latency,
                            bidirectional=draw(st.booleans()))
    elif kind == "star":
        topo = SwitchedStar(n, cap, latency=latency)
    else:
        topo = FatTree(n, cap, hosts_per_edge=draw(st.integers(2, 4)),
                       latency=latency,
                       oversubscription=draw(st.sampled_from([1.0, 2.0])))
    num_flows = draw(st.integers(1, 12))
    specs = []
    for _ in range(num_flows):
        src = draw(st.integers(0, n - 1))
        dst = draw(st.integers(0, n - 1).filter(lambda d: d != src))
        size = draw(st.floats(1e-3, 1e6))
        start = draw(st.sampled_from([0.0, 0.0, 1e-4]))  # bias: together
        specs.append((src, dst, size, start))
    return topo, specs


def _result_tuple(r):
    return (r.src, r.dst, r.size, r.start_time, r.finish_time, r.tag)


class TestEngineParity:
    @given(topology_and_flows())
    @settings(max_examples=120, deadline=None)
    def test_results_bit_for_bit(self, inst):
        topo, specs = inst
        new = FluidNetworkSimulator(topo)
        ref = ReferenceFluidSimulator(topo)
        got = new.run([new.make_flow(*sp) for sp in specs])
        want = ref.run([ref.make_flow(*sp) for sp in specs])
        assert [_result_tuple(r) for r in got] == want

    @given(topology_and_flows())
    @settings(max_examples=60, deadline=None)
    def test_every_event_allocation_is_maxmin(self, inst):
        topo, specs = inst
        sim = FluidNetworkSimulator(topo)
        flows = [sim.make_flow(*sp) for sp in specs]
        rate_log = []
        sim.run(flows, rate_log=rate_log)
        assert rate_log  # at least one allocation event
        batch = sorted(flows, key=lambda f: (f.start_time, f.src, f.dst))
        for _t, act_idx, rates in rate_log:
            active = [batch[i] for i in act_idx]
            validate_allocation(active, sim.capacities, rates)

    @given(topology_and_flows())
    @settings(max_examples=60, deadline=None)
    def test_solver_matches_reference(self, inst):
        topo, specs = inst
        sim = FluidNetworkSimulator(topo)
        flows = [sim.make_flow(*sp) for sp in specs]
        caps = sim.capacities
        got = max_min_fair_rates(flows, caps)
        want = reference_max_min_fair_rates(flows, caps)
        assert np.array_equal(got, want)

    @given(topology_and_flows())
    @settings(max_examples=40, deadline=None)
    def test_masked_fill_equals_subset_solve(self, inst):
        """Restricting the compiled solve to a mask is bit-for-bit a
        fresh solve over the subset (the per-event invariant)."""
        topo, specs = inst
        sim = FluidNetworkSimulator(topo)
        flows = [sim.make_flow(*sp) for sp in specs]
        batch = compile_flows(flows, sim.capacities)
        mask = np.zeros(len(flows), dtype=bool)
        mask[::2] = True
        got = progressive_fill(batch, mask)[mask]
        subset = [f for f, m in zip(flows, mask) if m]
        want = reference_max_min_fair_rates(subset, sim.capacities)
        assert np.array_equal(got, want)


def _staircase_specs(groups=6, stagger=0.0):
    """Incast groups of fan-in 1..groups on a star; ``stagger`` > 0
    admits each group that much after the previous one."""
    specs = []
    src = 100
    for fan in range(1, groups + 1):
        for _ in range(fan):
            specs.append((src, fan, 1.0 + 0.1 * fan, stagger * fan))
            src += 1
    return specs


class TestAdmissionWarmStartParity:
    """Mid-flight admissions match the frozen oracle bit-for-bit.

    The staircase admission schedule and randomized staggered starts
    each admit flows while others are in flight; the final results
    must equal the pre-refactor oracle's
    (``tests/fluid_oracle.py``) exactly.
    """

    def _hosts(self, specs):
        return max(max(s, d) for s, d, _, _ in specs) + 1

    def test_staircase_admissions_match_reference(self):
        specs = _staircase_specs(groups=6, stagger=1e-3)
        star = SwitchedStar(self._hosts(specs), 10.0)
        warm = FluidNetworkSimulator(star)
        ref = ReferenceFluidSimulator(star)
        got = warm.run([warm.make_flow(*sp) for sp in specs])
        want = ref.run([ref.make_flow(*sp) for sp in specs])
        assert [_result_tuple(r) for r in got] == want

    @given(topology_and_flows())
    @settings(max_examples=40, deadline=None)
    def test_random_admission_schedule_matches_reference(self, inst):
        """Staggered random starts (mid-flight admissions) through the
        warm engine still match the oracle exactly."""
        topo, specs = inst
        staggered = [(s, d, z, 1e-4 * i) for i, (s, d, z, _)
                     in enumerate(specs)]
        warm = FluidNetworkSimulator(topo)
        ref = ReferenceFluidSimulator(topo)
        got = warm.run([warm.make_flow(*sp) for sp in staggered])
        want = ref.run([ref.make_flow(*sp) for sp in staggered])
        assert [_result_tuple(r) for r in got] == want


class TestSparseBackendParity:
    """Dense and scipy-CSR incidence backends are interchangeable."""

    @needs_scipy
    @given(topology_and_flows())
    @settings(max_examples=60, deadline=None)
    def test_fill_matches_dense_exactly(self, inst):
        topo, specs = inst
        sim = FluidNetworkSimulator(topo)
        flows = [sim.make_flow(*sp) for sp in specs]
        paths = [f.path for f in flows]
        dense = _compile(paths, sim.capacities, "dense")
        sparse = _compile(paths, sim.capacities, "sparse")
        assert (dense.backend, sparse.backend) == ("dense", "sparse")
        mask = np.zeros(len(flows), dtype=bool)
        mask[::2] = True
        for active in (None, mask):
            got = progressive_fill(sparse, active)
            want = progressive_fill(dense, active)
            # Documented contract: rtol 1e-12.  In practice the 0/1
            # incidence keeps every count integer-exact, so the
            # backends agree bit-for-bit — pin the stronger property.
            assert np.array_equal(got, want)

    @needs_scipy
    @given(topology_and_flows())
    @settings(max_examples=40, deadline=None)
    def test_run_matches_dense_and_oracle(self, inst):
        topo, specs = inst
        sp_sim = FluidNetworkSimulator(topo)
        ref = ReferenceFluidSimulator(topo)
        with _backend("sparse"):
            got = sp_sim.run([sp_sim.make_flow(*sp) for sp in specs])
        want = ref.run([ref.make_flow(*sp) for sp in specs])
        assert [_result_tuple(r) for r in got] == want

    def test_auto_threshold_selects_backend(self):
        thr = flows_mod.SPARSE_FLOW_THRESHOLD
        assert resolve_backend(1) == "dense"
        assert resolve_backend(thr - 1) == "dense"
        assert resolve_backend(thr) == \
            ("sparse" if have_sparse() else "dense")

    def test_no_scipy_falls_back_to_dense(self, monkeypatch):
        """Environments without scipy run everything on the dense
        backend — same results, no errors — even at a size that would
        pick sparse.  (``_scipy_sparse`` is ``False`` when scipy is not
        installed; ``test_sparse_import.py`` runs the same fallback
        with scipy really unimportable.)"""
        monkeypatch.setattr(flows_mod, "_scipy_sparse", False)
        monkeypatch.setattr(flows_mod, "SPARSE_FLOW_THRESHOLD", 0)
        assert not have_sparse()
        star = SwitchedStar(6, 10.0)
        sim = FluidNetworkSimulator(star)
        flows = [sim.make_flow(i, (i + 1) % 6, 1.0 + i) for i in range(6)]
        paths = [f.path for f in flows]
        assert compile_paths(paths, sim.capacities).backend == "dense"
        ref = ReferenceFluidSimulator(star)
        got = sim.run_pairs([(i, (i + 1) % 6, 1.0 + i) for i in range(6)])
        want = ref.run_pairs([(i, (i + 1) % 6, 1.0 + i) for i in range(6)])
        assert [_result_tuple(r) for r in got] == want


class TestEngineBehaviour:
    def test_loopback_delivered_instantly(self):
        """Empty-path flows complete at admission (the old loop hung)."""
        star = SwitchedStar(4, 10.0)
        sim = FluidNetworkSimulator(star)
        loop = sim.make_flow(2, 2, 123.0, start_time=1.5)
        real = sim.make_flow(0, 1, 10.0)
        results = {(r.src, r.dst): r for r in sim.run([real, loop])}
        assert results[(2, 2)].finish_time == pytest.approx(1.5)
        assert results[(0, 1)].finish_time == pytest.approx(1.0)

    def test_convergence_guard_names_time_and_stuck_flows(self, monkeypatch):
        """The guard message includes `now` and the stuck flow set."""
        from repro.simulation import fluid as fluid_mod

        # Sabotage the completion test so no flow ever finishes.
        monkeypatch.setattr(fluid_mod, "_EPS_BYTES", -1.0)
        star = SwitchedStar(4, 10.0)
        sim = FluidNetworkSimulator(star)
        flow = sim.make_flow(0, 1, 1.0)
        with pytest.raises(SimulationError) as err:
            sim.run([flow])
        msg = str(err.value)
        assert "t=" in msg and "stuck flows: 0->1" in msg

    def test_solver_error_messages_preserved(self):
        with pytest.raises(SimulationError, match="unknown link"):
            max_min_fair_rates(
                [Flow(src=0, dst=1, size=1.0, path=("zz",))], {"a": 1.0})
        with pytest.raises(SimulationError, match="must be positive"):
            max_min_fair_rates(
                [Flow(src=0, dst=1, size=1.0, path=("a",))], {"a": 0.0})

    def test_rerun_resets_flow_state(self):
        star = SwitchedStar(4, 10.0)
        sim = FluidNetworkSimulator(star)
        flow = sim.make_flow(0, 1, 10.0)
        t1 = sim.run([flow])[0].finish_time
        t2 = sim.run([flow])[0].finish_time
        assert t1 == t2
        assert flow.remaining == 0.0

    def test_trace_matches_reference_accounting(self):
        """Traced runs (raw engine path) keep exact byte accounting."""
        star = SwitchedStar(4, 10.0)
        sim = FluidNetworkSimulator(star, keep_trace=True)
        sim.run_pairs([(0, 1, 100.0), (2, 1, 50.0)])
        # each flow crosses 2 links (up + down)
        assert sim.trace.total_bytes() == pytest.approx(300.0, rel=1e-9)
