"""Edge-case tests for the optical executor: policies, retry, direction,
striping validation."""

import re

import pytest

from repro import units
from repro.collectives.schedule import Schedule, Transfer, TransferOp
from repro.collectives import generate_ring_allreduce
from repro.config import HierarchicalSystem, OpticalRingSystem, Workload
from repro.core.substrates import (HierarchicalRackSubstrate,
                                   OpticalRingSubstrate)
from repro.errors import ConfigurationError, WavelengthAllocationError
from repro.faults import FaultEvent, FaultKind, FaultPlan
from repro.optical.rwa import AssignmentPolicy

WL = Workload(data_bytes=1 * units.MB)


class TestPolicies:
    def test_best_fit_policy_runs(self):
        system = OpticalRingSystem(num_nodes=8, num_wavelengths=8)
        rep = OpticalRingSubstrate(
            system, policy=AssignmentPolicy.BEST_FIT).execute(
                generate_ring_allreduce(8), WL)
        assert rep.total_time > 0

    def test_policies_agree_on_simple_schedules(self):
        system = OpticalRingSystem(num_nodes=8, num_wavelengths=8)
        sched = generate_ring_allreduce(8)
        ff = OpticalRingSubstrate(
            system, policy=AssignmentPolicy.FIRST_FIT).execute(sched, WL)
        bf = OpticalRingSubstrate(
            system, policy=AssignmentPolicy.BEST_FIT).execute(sched, WL)
        assert ff.total_time == pytest.approx(bf.total_time, rel=1e-12)


class TestStripingRetry:
    def test_retry_reduces_k_on_circular_conflict(self):
        """A wrap-around circular-arc instance where uniform striping at
        the congestion-derived factor cannot be First-Fit coloured, so
        the executor must fall back to thinner stripes."""
        # Three flows around a 6-ring, each 2 hops CW, covering the ring
        # exactly once -> per-link demand 1 -> k0 = w = 4.  Adding one
        # long 5-hop flow makes some links demand 2 -> k0 = 2, and the
        # interleaving forces FF to fragment.
        sched = Schedule(num_nodes=6, num_chunks=1)
        sched.add_step([
            Transfer(0, 2, range(1), TransferOp.REDUCE, "cw"),
            Transfer(2, 4, range(1), TransferOp.REDUCE, "cw"),
            Transfer(4, 0, range(1), TransferOp.REDUCE, "cw"),
            Transfer(1, 0, range(1), TransferOp.REDUCE, "cw"),  # 5 hops
        ])
        system = OpticalRingSystem(num_nodes=6, num_wavelengths=4)
        rep = OpticalRingSubstrate(system).execute(sched, WL)
        # must succeed (possibly with k < k0) within budget
        assert rep.steps[0].spectrum_span <= 4
        assert rep.steps[0].striping >= 1

    def test_truly_infeasible_still_raises(self):
        sched = Schedule(num_nodes=6, num_chunks=1)
        sched.add_step([
            Transfer(0, 3, range(1), TransferOp.REDUCE, "cw"),
            Transfer(1, 4, range(1), TransferOp.REDUCE, "cw"),
            Transfer(2, 5, range(1), TransferOp.REDUCE, "cw"),
        ])  # middle links carry 3 flows
        system = OpticalRingSystem(num_nodes=6, num_wavelengths=2)
        with pytest.raises(WavelengthAllocationError):
            OpticalRingSubstrate(system, striping="off").execute(sched, WL)


class TestUnidirectional:
    def test_oring_on_unidirectional_ring(self):
        system = OpticalRingSystem(num_nodes=8, num_wavelengths=4,
                                   bidirectional=False)
        rep = OpticalRingSubstrate(system, striping="off").execute(
            generate_ring_allreduce(8), WL)
        assert rep.num_steps == 14

    def test_ccw_hint_on_unidirectional_fails(self):
        from repro.errors import TopologyError
        sched = Schedule(num_nodes=4, num_chunks=1)
        sched.add_step([Transfer(1, 0, range(1), TransferOp.REDUCE,
                                 "ccw")])
        system = OpticalRingSystem(num_nodes=4, bidirectional=False)
        with pytest.raises(TopologyError):
            OpticalRingSubstrate(system).execute(sched, WL)


class TestTuningAccounting:
    def test_alternating_steps_retune_every_time(self):
        sched = Schedule(num_nodes=4, num_chunks=1)
        a = [Transfer(0, 1, range(1), TransferOp.REDUCE, "cw")]
        b = [Transfer(2, 3, range(1), TransferOp.REDUCE, "cw")]
        for _ in range(2):
            sched.add_step(a)
            sched.add_step(b)
        system = OpticalRingSystem(num_nodes=4, tuning_time=10e-6)
        rep = OpticalRingSubstrate(system, striping="off").execute(sched, WL)
        assert all(s.tuning_time == pytest.approx(10e-6)
                   for s in rep.steps)

    def test_repeated_step_free_after_first(self):
        sched = Schedule(num_nodes=4, num_chunks=1)
        step = [Transfer(0, 1, range(1), TransferOp.REDUCE, "cw")]
        for _ in range(3):
            sched.add_step(step)
        system = OpticalRingSystem(num_nodes=4, tuning_time=10e-6)
        rep = OpticalRingSubstrate(system, striping="off").execute(sched, WL)
        assert rep.steps[0].tuning_time == pytest.approx(10e-6)
        assert rep.steps[1].tuning_time == 0.0
        assert rep.steps[2].tuning_time == 0.0


class TestStripingValidation:
    """A bad striping mode fails once, typed, before any step runs, on
    the ring and on the hierarchy's leader ring alike."""

    BAD = ["bogus", 2.7, True, 0]
    SUBSTRATES = {
        "optical-ring": (OpticalRingSubstrate,
                         OpticalRingSystem(num_nodes=8, num_wavelengths=8)),
        # One rack: every step is local, so no leader step would ever
        # reach the ring's striping decision.
        "hier-rack": (HierarchicalRackSubstrate,
                      HierarchicalSystem(num_nodes=8, group_size=8)),
    }
    PLAN = FaultPlan((FaultEvent(0.0, FaultKind.WAVELENGTH_DOWN,
                                 wavelength=0),))

    @staticmethod
    def _names(value):
        return rf"striping must be .* got {re.escape(repr(value))}$"

    @pytest.mark.parametrize("name", sorted(SUBSTRATES))
    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_constructor_rejects(self, name, value):
        cls, system = self.SUBSTRATES[name]
        with pytest.raises(ConfigurationError, match=self._names(value)):
            cls(system, striping=value)

    @pytest.mark.parametrize("name", sorted(SUBSTRATES))
    @pytest.mark.parametrize("value", BAD, ids=repr)
    def test_per_call_rejects(self, name, value):
        cls, system = self.SUBSTRATES[name]
        sub = cls(system)
        sched = generate_ring_allreduce(8)
        with pytest.raises(ConfigurationError, match=self._names(value)):
            sub.execute(sched, WL, striping=value)
        with pytest.raises(ConfigurationError, match=self._names(value)):
            sub.execute_with_faults(sched, WL, self.PLAN, striping=value)
        assert sub.rwa_cache_info().misses == 0

    @pytest.mark.parametrize("name", sorted(SUBSTRATES))
    @pytest.mark.parametrize("value", ["auto", "off", 1, 3])
    def test_valid_modes_accepted(self, name, value):
        cls, system = self.SUBSTRATES[name]
        rep = cls(system, striping=value).execute(
            generate_ring_allreduce(8), WL, striping=value)
        assert rep.total_time > 0
