"""Fault replay on every fault-capable substrate: bit-for-bit pins, and
plans that name hardware the fabric does not have.

The other fault tests compare repair overheads with ``pytest.approx``;
the pins here compare with ``==``.  Each substrate runs ring all-reduce and
recursive doubling at N=16 under three seeded Poisson plans (link, node,
wavelength and stall faults) on one instance, so its ``describe()``
counters after the six runs pin the cache traffic of the replay as well
as its timings.  A replay that moves one float, one degraded step or one
cache lookup fails here.
"""

import pytest

from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import Workload, default_hierarchical
from repro.core.substrates.electrical import ElectricalSubstrate
from repro.core.substrates.hier_rack import HierarchicalRackSubstrate
from repro.core.substrates.optical_ring import OpticalRingSubstrate
from repro.core.substrates.optical_torus import OpticalTorusSubstrate
from repro.errors import ConfigurationError, DegradedError
from repro.faults import FaultEvent, FaultKind, FaultOutcome, FaultPlan

MAKERS = {
    "electrical-ring": lambda: ElectricalSubstrate(topology="ring"),
    "electrical-switch": lambda: ElectricalSubstrate(topology="switch"),
    "optical-ring": lambda: OpticalRingSubstrate(),
    "hier-rack": lambda: HierarchicalRackSubstrate(
        default_hierarchical(16, group_size=4)),
    "optical-torus": lambda: OpticalTorusSubstrate(),
}
SCHEDULES = {"ring": generate_ring_allreduce(16),
             "rd": generate_recursive_doubling(16)}
WL = Workload(3.7e7)


def poisson_plan(seed):
    return FaultPlan.poisson(
        duration=0.01, num_nodes=16, seed=seed, link_rate=600,
        node_rate=100, wavelength_rate=600, stall_rate=600,
        num_wavelengths=8, mean_repair=7e-4, stall_duration=2e-4)


#: (substrate, schedule, seed) -> (report.total_time, outcome), or the
#: error a partition raises.
RUNS = {
    ('electrical-ring', 'ring', 0):
        (0.005921430119835336, FaultOutcome(
            events_applied=20, faults_survived=19,
            degraded_steps=(6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20,
                            21, 22, 23, 24, 25),
            repair_overhead=0.0,
            stall_time=7.143011983533863e-05)),
    ('electrical-ring', 'ring', 1): DegradedError,
    ('electrical-ring', 'ring', 2):
        (0.006457962870433519, FaultOutcome(
            events_applied=17, faults_survived=10,
            degraded_steps=(2, 7, 8, 9, 10, 17, 21, 22, 23, 24),
            repair_overhead=0.0,
            stall_time=0.0006079628704335211)),
    ('electrical-ring', 'rd', 0):
        (0.05036, FaultOutcome(
            events_applied=30, faults_survived=2,
            degraded_steps=(1, 2),
            repair_overhead=0.005920000000000002,
            stall_time=0.0)),
    ('electrical-ring', 'rd', 1):
        (0.04443999999999999, FaultOutcome(
            events_applied=18, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('electrical-ring', 'rd', 2):
        (0.04443999999999999, FaultOutcome(
            events_applied=27, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('electrical-switch', 'ring', 0):
        (0.005921430119835336, FaultOutcome(
            events_applied=20, faults_survived=19,
            degraded_steps=(6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 20,
                            21, 22, 23, 24, 25),
            repair_overhead=0.0,
            stall_time=7.143011983533863e-05)),
    ('electrical-switch', 'ring', 1): DegradedError,
    ('electrical-switch', 'ring', 2):
        (0.006457962870433519, FaultOutcome(
            events_applied=17, faults_survived=10,
            degraded_steps=(2, 7, 8, 9, 10, 17, 21, 22, 23, 24),
            repair_overhead=0.0,
            stall_time=0.0006079628704335211)),
    ('electrical-switch', 'rd', 0):
        (0.01188, FaultOutcome(
            events_applied=27, faults_survived=2,
            degraded_steps=(1, 3),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('electrical-switch', 'rd', 1):
        (0.01188, FaultOutcome(
            events_applied=16, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('electrical-switch', 'rd', 2):
        (0.01188, FaultOutcome(
            events_applied=22, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-ring', 'ring', 0): DegradedError,
    ('optical-ring', 'ring', 1):
        (0.0004019500000000003, FaultOutcome(
            events_applied=0, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-ring', 'ring', 2):
        (0.00042743999999999974, FaultOutcome(
            events_applied=1, faults_survived=14,
            degraded_steps=(16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28,
                            29),
            repair_overhead=2.5489999999999985e-05,
            stall_time=0.0)),
    ('optical-ring', 'rd', 0):
        (0.0028790375, FaultOutcome(
            events_applied=5, faults_survived=1,
            degraded_steps=(3,),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-ring', 'rd', 1):
        (0.0028790375, FaultOutcome(
            events_applied=2, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-ring', 'rd', 2):
        (0.0028790375, FaultOutcome(
            events_applied=3, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('hier-rack', 'ring', 0):
        (0.012496175026927119, FaultOutcome(
            events_applied=29, faults_survived=19,
            degraded_steps=(3, 4, 5, 6, 7, 8, 10, 11, 19, 20, 21, 22, 23, 24,
                            25, 26, 27, 28, 29),
            repair_overhead=0.00020277665770609336,
            stall_time=0.00014122336922102463)),
    ('hier-rack', 'ring', 1): DegradedError,
    ('hier-rack', 'ring', 2):
        (0.012444629270197682, FaultOutcome(
            events_applied=27, faults_survived=10,
            degraded_steps=(1, 4, 5, 11, 12, 19, 20, 23, 24, 25),
            repair_overhead=7.573412698412709e-05,
            stall_time=0.00019172014321355195)),
    ('hier-rack', 'rd', 0):
        (0.04377203, FaultOutcome(
            events_applied=30, faults_survived=1,
            degraded_steps=(1,),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('hier-rack', 'rd', 1):
        (0.04377203, FaultOutcome(
            events_applied=18, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('hier-rack', 'rd', 2):
        (0.04377203, FaultOutcome(
            events_applied=27, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-torus', 'ring', 0): DegradedError,
    ('optical-torus', 'ring', 1):
        (0.0011270250000000005, FaultOutcome(
            events_applied=2, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-torus', 'ring', 2):
        (0.001313659675358056, FaultOutcome(
            events_applied=3, faults_survived=10,
            degraded_steps=(6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
            repair_overhead=2.4999999999987055e-08,
            stall_time=0.00018660967535805563)),
    ('optical-torus', 'rd', 0):
        (0.0012140150000000001, FaultOutcome(
            events_applied=2, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-torus', 'rd', 1):
        (0.0012140150000000001, FaultOutcome(
            events_applied=0, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
    ('optical-torus', 'rd', 2):
        (0.0012140150000000001, FaultOutcome(
            events_applied=2, faults_survived=0,
            degraded_steps=(),
            repair_overhead=0.0,
            stall_time=0.0)),
}

DESCRIBES = {
    'electrical-ring': (
        ('topology', 'ring'),
        ('fluid_cache_hits', 124),
        ('fluid_cache_misses', 13),
        ('fluid_cache_hit_rate', 0.9051),
        ('fluid_cache_skipped', 0),
        ('compile_cache_hits', 2),
        ('compile_cache_misses', 12),
        ('compile_cache_hit_rate', 0.1429),
        ('compile_cache_skipped', 0),
        ('faults_survived', 31),
        ('repair_overhead', 0.00592),
        ('fault_stall_time', 0.000679393),
        ('fault_events_applied', 112),
    ),
    'electrical-switch': (
        ('topology', 'switch'),
        ('fluid_cache_hits', 124),
        ('fluid_cache_misses', 13),
        ('fluid_cache_hit_rate', 0.9051),
        ('fluid_cache_skipped', 0),
        ('compile_cache_hits', 6),
        ('compile_cache_misses', 8),
        ('compile_cache_hit_rate', 0.4286),
        ('compile_cache_skipped', 0),
        ('faults_survived', 31),
        ('repair_overhead', 0.0),
        ('fault_stall_time', 0.000679393),
        ('fault_events_applied', 102),
    ),
    'optical-ring': (
        ('faults_survived', 15),
        ('repair_overhead', 2.549e-05),
        ('fault_stall_time', 0.0),
        ('fault_events_applied', 11),
        ('policy', 'first-fit'),
        ('striping', 'auto'),
        ('rwa_cache_hits', 168),
        ('rwa_cache_misses', 8),
        ('rwa_cache_hit_rate', 0.9545),
        ('rwa_cache_skipped', 0),
        ('rwa_delta_patched', 0),
        ('rwa_delta_fallbacks', 3),
    ),
    'hier-rack': (
        ('policy', 'first-fit'),
        ('striping', 'auto'),
        ('local_steps', 6),
        ('leader_steps', 0),
        ('mixed_steps', 96),
        ('relayed_transfers', 432),
        ('rwa_cache_hits', 161),
        ('rwa_cache_misses', 10),
        ('rwa_cache_hit_rate', 0.9415),
        ('rwa_cache_skipped', 0),
        ('rwa_delta_patched', 0),
        ('rwa_delta_fallbacks', 6),
        ('fluid_cache_hits', 436),
        ('fluid_cache_misses', 21),
        ('fluid_cache_hit_rate', 0.954),
        ('fluid_cache_skipped', 0),
        ('compile_cache_hits', 13),
        ('compile_cache_misses', 9),
        ('compile_cache_hit_rate', 0.5909),
        ('compile_cache_skipped', 0),
        ('faults_survived', 30),
        ('repair_overhead', 0.000278511),
        ('fault_stall_time', 0.000332944),
        ('fault_events_applied', 131),
        ('num_nodes', 16),
        ('group_size', 4),
        ('num_groups', 4),
        ('local_link_rate', 12500000000.0),
        ('num_wavelengths', 64),
    ),
    'optical-torus': (
        ('fluid_cache_hits', 106),
        ('fluid_cache_misses', 6),
        ('fluid_cache_hit_rate', 0.9464),
        ('fluid_cache_skipped', 0),
        ('compile_cache_hits', 0),
        ('compile_cache_misses', 7),
        ('compile_cache_hit_rate', 0.0),
        ('compile_cache_skipped', 0),
        ('faults_survived', 10),
        ('repair_overhead', 2.5e-08),
        ('fault_stall_time', 0.00018661),
        ('fault_events_applied', 9),
    ),
}


@pytest.mark.parametrize("name", list(MAKERS))
def test_replay_grid_is_pinned(name):
    sub = MAKERS[name]()
    for alg, sched in SCHEDULES.items():
        for seed in range(3):
            want = RUNS[name, alg, seed]
            if want is DegradedError:
                with pytest.raises(DegradedError):
                    sub.execute_with_faults(sched, WL, poisson_plan(seed))
                continue
            run = sub.execute_with_faults(sched, WL, poisson_plan(seed))
            assert (run.report.total_time, run.outcome) == want, (alg, seed)
    assert sub.describe().parameters == DESCRIBES[name]


def test_grid_covers_degraded_stalled_and_partitioned_runs():
    done = [v for v in RUNS.values() if v is not DegradedError]
    assert len(done) == 25
    assert sum(1 for _, out in done if out.degraded_steps) == 12
    assert sum(1 for _, out in done if out.stall_time > 0) == 7


@pytest.mark.parametrize("name", list(MAKERS))
@pytest.mark.parametrize("alg", list(SCHEDULES))
def test_event_after_the_last_step_replays_the_clean_run(name, alg):
    """One event at t = 10 s, after every step: the replay loop runs
    every step under the clean state (a zero-event plan short-circuits
    to ``execute`` and never reaches it), and must reproduce the
    fault-free report exactly."""
    sub = MAKERS[name]()
    sched = SCHEDULES[alg]
    ref = sub.execute(sched, WL)
    plan = FaultPlan.of([FaultEvent(time=10.0, kind=FaultKind.LINK_DOWN,
                                    link=(0, 1))])
    run = sub.execute_with_faults(sched, WL, plan)
    assert run.report == ref
    assert run.outcome == FaultOutcome()


#: Targets past the end of every fabric in the grid (16 nodes, 64
#: wavelengths on the optical ones), with the text the error names.
MISSING = {
    "node": (dict(kind=FaultKind.NODE_DOWN, node=99), "node=99"),
    "link": (dict(kind=FaultKind.LINK_DOWN, link=(3, 99)),
             r"link=\(3, 99\)"),
    "first-missing-node": (dict(kind=FaultKind.NODE_DOWN, node=16),
                           "node=16"),
}
WAVELENGTH_FABRICS = ("optical-ring", "hier-rack", "optical-torus")


class TestMissingFaultTargets:
    """A plan naming a node, link endpoint or wavelength the fabric does
    not have is rejected with a typed error before any step runs (the
    substrate's counters stay those of a fresh instance)."""

    def _rejects(self, name, kw, match):
        sub = MAKERS[name]()
        plan = FaultPlan.of([
            FaultEvent(time=0.0, kind=FaultKind.OCS_STALL, duration=1e-4),
            FaultEvent(time=1e-3, **kw)])
        with pytest.raises(ConfigurationError, match=match):
            sub.execute_with_faults(SCHEDULES["ring"], WL, plan)
        assert sub.describe() == MAKERS[name]().describe()

    @pytest.mark.parametrize("name", list(MAKERS))
    @pytest.mark.parametrize("target", list(MISSING))
    def test_missing_node_or_link(self, name, target):
        kw, match = MISSING[target]
        self._rejects(name, kw, match)

    @pytest.mark.parametrize("name", WAVELENGTH_FABRICS)
    @pytest.mark.parametrize("wavelength", [64, 99])
    def test_missing_wavelength(self, name, wavelength):
        self._rejects(name, dict(kind=FaultKind.WAVELENGTH_DOWN,
                                 wavelength=wavelength),
                      f"wavelength={wavelength}")

    def test_switch_node_ids_are_left_alone(self):
        """The star switch is node -1: cutting a host's switch link is a
        real fault (the host drops out), not a missing target."""
        sub = MAKERS["electrical-switch"]()
        plan = FaultPlan.of([FaultEvent(time=0.0, kind=FaultKind.LINK_DOWN,
                                        link=(-1, 3))])
        with pytest.raises(DegradedError):
            sub.execute_with_faults(SCHEDULES["ring"], WL, plan)
