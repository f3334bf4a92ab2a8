"""Tests for fault injection through the substrates.

The keystone guarantees of the fault subsystem:

* a zero-event plan reproduces the fault-free report **bit for bit**
  on every substrate (pinned here on e-ring, o-ring, and hier-rack);
* a fault followed by its repair converges back to the fault-free
  steady state;
* degraded work is visible (degraded steps, repair overhead, stall
  time) and partitions fail loudly with :class:`DegradedError`.
"""

import pytest

from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload, default_optical
from repro.core.substrates.electrical import ElectricalSubstrate
from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.core.substrates.optical_torus import OpticalTorusSubstrate
from repro.errors import (ConfigurationError, DegradedError,
                          SimulationStallError)
from repro.faults import FaultEvent, FaultKind, FaultPlan

from ring_references import (UncachedFullResolveRing, UncachedHierRack,
                             UncachedRing)

WL = Workload(data_bytes=1 << 24)
RING8 = generate_ring_allreduce(8)
RD8 = generate_recursive_doubling(8)


def ev(time, kind, **kw):
    return FaultEvent(time=time, kind=kind, **kw)


class TestZeroEventPassthrough:
    """The empty plan must be a bit-for-bit no-op, not a near-copy."""

    @pytest.mark.parametrize("none_plan", [None, FaultPlan.none()])
    @pytest.mark.parametrize("make", [
        lambda: ElectricalSubstrate(topology="ring"),
        lambda: UncachedRing(),
        lambda: UncachedHierRack(),
        lambda: OpticalTorusSubstrate(),
        lambda: OpticalRingSubstrate(),
        lambda: HierarchicalRackSubstrate(),
    ], ids=["e-ring", "o-ring", "hier-rack", "o-torus", "o-ring-memo",
            "hier-rack-memo"])
    def test_bit_for_bit(self, make, none_plan):
        sub = make()
        ref = sub.execute(RING8, WL)
        run = sub.execute_with_faults(RING8, WL, none_plan)
        assert run.report.steps == ref.steps
        assert run.report.total_time == ref.total_time
        assert run.outcome.events_applied == 0
        assert run.outcome.faults_survived == 0
        assert run.outcome.repair_overhead == 0.0

    def test_counters_stay_zero_on_passthrough(self):
        sub = ElectricalSubstrate(topology="ring")
        sub.execute_with_faults(RING8, WL, FaultPlan.none())
        params = dict(sub.describe().parameters)
        assert params["faults_survived"] == 0
        assert params["repair_overhead"] == 0.0


class TestElectricalDegraded:
    def test_link_cut_reroutes_and_recovers(self):
        sub = ElectricalSubstrate(topology="ring")
        ref = sub.execute(RD8, WL)
        t0 = ref.steps[0].duration
        plan = FaultPlan.of([
            ev(0.0, FaultKind.LINK_DOWN, link=(2, 3)),
            ev(t0 * 1.5, FaultKind.LINK_UP, link=(2, 3)),
        ])
        run = sub.execute_with_faults(RD8, WL, plan)
        out = run.outcome
        assert out.events_applied == 2
        assert out.degraded_steps  # rerouted steps happened
        # recursive doubling loads both ring directions, so the reroute
        # contends with healthy flows: real slowdown, not a free detour
        assert out.repair_overhead > 0
        assert run.report.total_time > ref.total_time
        # after the repair every remaining step matches the healthy run
        for got, want in zip(run.report.steps[2:], ref.steps[2:]):
            assert got.duration == want.duration

    def test_counters_accumulate_in_describe(self):
        sub = ElectricalSubstrate(topology="ring")
        ref = sub.execute(RD8, WL)
        plan = FaultPlan.of([ev(0.0, FaultKind.LINK_DOWN, link=(2, 3)),
                             ev(ref.total_time * 2,
                                FaultKind.LINK_UP, link=(2, 3))])
        run = sub.execute_with_faults(RD8, WL, plan)
        params = dict(sub.describe().parameters)
        assert params["faults_survived"] == run.outcome.faults_survived > 0
        # describe() rounds to 9 decimals
        assert params["repair_overhead"] == pytest.approx(
            run.outcome.repair_overhead, abs=1e-9)

    def test_partition_raises_degraded_error(self):
        sub = ElectricalSubstrate(topology="ring")
        # two cuts split a ring into two arcs: flows across must fail
        plan = FaultPlan.of([ev(0.0, FaultKind.LINK_DOWN, link=(1, 2)),
                             ev(0.0, FaultKind.LINK_DOWN, link=(5, 6))])
        with pytest.raises(DegradedError):
            sub.execute_with_faults(RING8, WL, plan)


class TestOpticalRingDegraded:
    def test_wavelength_loss_patches_and_recovers(self):
        sub = UncachedRing()
        ref = sub.execute(RING8, WL)
        plan = FaultPlan.of([
            ev(0.0, FaultKind.WAVELENGTH_DOWN, wavelength=0),
            ev(ref.total_time * 0.5, FaultKind.WAVELENGTH_UP, wavelength=0),
        ])
        run = sub.execute_with_faults(RING8, WL, plan)
        assert run.outcome.faults_survived > 0
        # post-repair steps converge to the healthy colouring exactly
        assert run.report.steps[-1].duration == ref.steps[-1].duration

    def test_wavelength_loss_matches_full_resolve(self):
        """The delta patch under a lost wavelength must equal a cold
        solve under the same mask — identical reports, cheaper work."""
        ref = UncachedFullResolveRing()
        inc = UncachedRing()
        plan = FaultPlan.of([ev(0.0, FaultKind.WAVELENGTH_DOWN,
                                wavelength=0)])
        a = ref.execute_with_faults(RING8, WL, plan)
        b = inc.execute_with_faults(RING8, WL, plan)
        assert a.report.steps == b.report.steps
        assert inc.delta_patched > 0

    def test_ocs_stall_adds_exactly_stall_time(self):
        sub = OpticalRingSubstrate()
        ref = sub.execute(RING8, WL)
        t0 = ref.steps[0].duration
        plan = FaultPlan.of([ev(t0 * 0.5, FaultKind.OCS_STALL,
                                duration=0.003)])
        run = sub.execute_with_faults(RING8, WL, plan)
        assert run.outcome.stall_time > 0
        assert run.report.total_time == pytest.approx(
            ref.total_time + run.outcome.stall_time, rel=1e-12)
        # a stall delays; it never degrades routes
        assert run.outcome.repair_overhead == pytest.approx(0.0, abs=1e-12)

    def test_node_failure_is_fatal_for_its_flows(self):
        sub = OpticalRingSubstrate()
        plan = FaultPlan.of([ev(0.0, FaultKind.NODE_DOWN, node=3)])
        with pytest.raises(DegradedError):
            sub.execute_with_faults(RING8, WL, plan)

    def test_link_cut_forces_opposite_direction(self):
        sub = OpticalRingSubstrate()
        ref = sub.execute(RING8, WL)
        plan = FaultPlan.of([ev(0.0, FaultKind.LINK_DOWN, link=(2, 3)),
                             ev(ref.total_time * 10,
                                FaultKind.LINK_UP, link=(2, 3))])
        run = sub.execute_with_faults(RING8, WL, plan)
        assert run.outcome.degraded_steps
        assert run.report.total_time >= ref.total_time

    def test_all_wavelengths_lost_is_degraded_error(self):
        system = default_optical(8, num_wavelengths=2)
        sub = OpticalRingSubstrate(system)
        plan = FaultPlan.of([ev(0.0, FaultKind.WAVELENGTH_DOWN,
                                wavelength=0),
                             ev(0.0, FaultKind.WAVELENGTH_DOWN,
                                wavelength=1)])
        from repro.errors import WavelengthAllocationError
        with pytest.raises((DegradedError, WavelengthAllocationError)):
            sub.execute_with_faults(RING8, WL, plan)


class TestRwaDeltaFallbackCounters:
    """Exact counter accounting across the patch/fallback/cold paths."""

    def _step(self, pairs, n=8):
        from repro.collectives.schedule import Transfer, TransferOp
        return [Transfer(src=a, dst=b, chunks=(0,), op=TransferOp.REDUCE)
                for a, b in pairs]

    def _sched(self, steps, n=8):
        from repro.collectives.schedule import Schedule
        s = Schedule(num_nodes=n, num_chunks=1, name="seq")
        for st in steps:
            s.add_step(st)
        return s

    def test_exact_patch_and_fallback_counts(self):
        churn = [(0, 1), (2, 3)]
        spike = [(0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (1, 3)]
        sched = self._sched([
            self._step(churn),   # cold solve (no base): neither counter
            self._step(churn),   # identical: patch        -> patched 1
            self._step(spike),   # demand change: fallback -> fallbacks 1
            self._step(spike),   # identical again: patch  -> patched 2
        ])
        sub = UncachedRing()
        sub.execute(sched, WL)
        assert sub.delta_patched == 2
        assert sub.delta_fallbacks == 1
        params = dict(sub.describe().parameters)
        assert params["rwa_delta_patched"] == 2
        assert params["rwa_delta_fallbacks"] == 1

    def test_fallback_exactly_once_per_forced_break(self):
        """Each demand break costs exactly one fallback, never more."""
        churn = [(0, 1), (2, 3)]                      # max demand 1
        spike = [(0, 1), (2, 3), (4, 5), (6, 7),
                 (0, 2), (1, 3)]                      # max demand 2
        sched = self._sched([self._step(churn), self._step(spike),
                             self._step(churn), self._step(spike)])
        sub = UncachedRing()
        sub.execute(sched, WL)
        # solves: cold, then every transition flips the striping width
        assert sub.delta_fallbacks == 3
        assert sub.delta_patched == 0

    def test_repair_transition_full_resolves_not_patches(self):
        """Restoring a wavelength must fall off the patch path (an
        early request might prefer the restored channel), and the
        post-repair colouring must equal the healthy one."""
        inc = UncachedRing()
        ref = inc.execute(RING8, WL)
        plan = FaultPlan.of([
            ev(0.0, FaultKind.WAVELENGTH_DOWN, wavelength=0),
            ev(ref.steps[0].duration * 1.5, FaultKind.WAVELENGTH_UP,
               wavelength=0),
        ])
        run = inc.execute_with_faults(RING8, WL, plan)
        first_clean = max(run.outcome.degraded_steps) + 1
        # the first clean step re-solves and re-tunes (one-time cost)...
        assert run.report.steps[first_clean].striping == \
            ref.steps[first_clean].striping
        # ...and every step after it matches the healthy run exactly
        for got, want in zip(run.report.steps[first_clean + 1:],
                             ref.steps[first_clean + 1:]):
            assert got.duration == want.duration


class TestHierRackDegraded:
    """Fault injection through both levels of the rack hierarchy."""

    def test_wavelength_loss_degrades_and_recovers(self):
        """A lost leader-ring wavelength reaches the optical plane,
        slows cross-rack steps, and repairs converge exactly."""
        sub = UncachedHierRack()
        ref = sub.execute(RD8, WL)
        plan = FaultPlan.of([
            ev(0.0, FaultKind.WAVELENGTH_DOWN, wavelength=0),
            ev(ref.total_time * 0.5, FaultKind.WAVELENGTH_UP, wavelength=0),
        ])
        run = sub.execute_with_faults(RD8, WL, plan)
        assert run.outcome.faults_survived > 0
        assert run.report.steps[-1].duration == ref.steps[-1].duration

    def test_member_host_down_is_fatal_for_its_flows(self):
        """Every host participates in the collective, so a downed
        member partitions its star flows."""
        sub = HierarchicalRackSubstrate()
        plan = FaultPlan.of([ev(0.0, FaultKind.NODE_DOWN, node=0)])
        with pytest.raises(DegradedError):
            sub.execute_with_faults(RD8, WL, plan)

    def test_stall_adds_exactly_stall_time(self):
        sub = HierarchicalRackSubstrate()
        ref = sub.execute(RD8, WL)
        t0 = ref.steps[0].duration
        plan = FaultPlan.of([ev(t0 * 0.5, FaultKind.OCS_STALL,
                                duration=0.004)])
        run = sub.execute_with_faults(RD8, WL, plan)
        assert run.outcome.stall_time > 0
        assert run.report.total_time == pytest.approx(
            ref.total_time + run.outcome.stall_time, rel=1e-12)
        assert run.outcome.repair_overhead == pytest.approx(0.0, abs=1e-12)

    def test_healthy_execute_unaffected_after_faulty_run(self):
        """The pooled leader-ring network must come back clean."""
        sub = UncachedHierRack()
        ref = sub.execute(RD8, WL)
        plan = FaultPlan.of([ev(0.0, FaultKind.WAVELENGTH_DOWN,
                                wavelength=0)])
        sub.execute_with_faults(RD8, WL, plan)
        again = sub.execute(RD8, WL)
        assert again.steps == ref.steps

    def test_rack_state_lift(self):
        """Only leader-plane failures project onto the ring: a failed
        leader takes its rack's position down, a leader-to-leader link
        cuts the ring arc, member-host faults stay local."""
        from repro.config import default_hierarchical
        from repro.faults.events import FaultState

        sub = HierarchicalRackSubstrate()
        system = default_hierarchical(8)  # racks of 2, leaders 1,3,5,7
        leaders = {system.leader_of(i) for i in range(8)}
        assert leaders == {1, 3, 5, 7}
        state = FaultState(
            failed_links=frozenset({(1, 3), (0, 2), (0, 1)}),
            failed_nodes=frozenset({5, 2}))
        links, nodes = sub._lift_rack_state(system, state)
        assert links == {(system.rack_of(1), system.rack_of(3))}
        assert nodes == {system.rack_of(5)}


class TestSimulationStall:
    def test_stall_guard_raises_typed_error(self, monkeypatch):
        """Shrinking the event cap must trip SimulationStallError with
        the stalled time and the stuck flows attached."""
        from repro.simulation import fluid
        from repro.simulation.fluid import FluidNetworkSimulator
        from repro.topology.ring import RingTopology

        monkeypatch.setattr(fluid, "MAX_EVENT_ROUNDS_FACTOR", 0)
        sim = FluidNetworkSimulator(
            RingTopology(8, capacity=1.0, bidirectional=True))
        # 30 contended flows with distinct sizes need ~30 completion
        # events — far more than the shrunken cap allows
        flows = [(0, 4, 100.0 * (i + 1)) for i in range(30)]
        with pytest.raises(SimulationStallError) as exc:
            sim.step_time(flows)
        err = exc.value
        assert err.now is not None and err.now > 0
        assert err.stuck_flows  # names the wedged flows

    def test_stall_error_is_simulation_error(self):
        from repro.errors import SimulationError
        assert issubclass(SimulationStallError, SimulationError)
