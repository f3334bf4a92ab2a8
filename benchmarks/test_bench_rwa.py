"""EXT-A4 — First-Fit vs Best-Fit wavelength assignment.

Runs both policies on ring all-to-all instances (the hardest step Wrht
schedules), comparing spectrum span against the congestion lower bound
and the paper's ⌈p²/8⌉ budget; also times the assignment itself (it
runs once per schedule step).

Finding recorded here: with simple shortest-arc routing and a
deterministic ``src < dst`` antipodal tie-break, even-spread all-to-all
loads the hottest segment with ``p²/8 + p/4`` flows — the paper's
⌈p²/8⌉ assumes routing that also spreads antipodal pairs.  The Wrht
generator uses the *exact* demand (``alltoall_actual_demand``), so its
feasibility checks already absorb the +p/4.
"""

import pytest

from conftest import BENCH_RWA_JSON, interleaved_best_times, record_bench
from ring_references import UncachedRing

from repro.analysis.ascii_plot import simple_table
from repro.collectives.alltoall_wdm import alltoall_wavelength_requirement
from repro.collectives.placement import place_schedule
from repro.collectives.ring_allreduce import generate_ring_allreduce
from repro.config import OpticalRingSystem, Workload, default_optical
from repro.core.substrates import OpticalRingSubstrate
from repro.optical import (AssignmentPolicy, OpticalRingNetwork,
                           TransferRequest, assign_wavelengths)
from repro.optical.rwa import RwaDelta, assign_wavelengths_delta


def _alltoall_requests(p: int, n: int):
    """p participants evenly spread on an n-ring, full exchange."""
    nodes = [i * (n // p) for i in range(p)]
    return [TransferRequest(a, b) for a in nodes for b in nodes if a != b]


def _assign(p, n, policy):
    net = OpticalRingNetwork(OpticalRingSystem(
        num_nodes=n, num_wavelengths=256))
    return assign_wavelengths(net, _alltoall_requests(p, n), policy)


def test_rwa_policy_comparison(once):
    def run():
        rows = []
        for p in (4, 8, 12, 16, 24):
            ff = _assign(p, 96, AssignmentPolicy.FIRST_FIT)
            bf = _assign(p, 96, AssignmentPolicy.BEST_FIT)
            rows.append((p, alltoall_wavelength_requirement(p),
                         ff.max_link_load, ff.spectrum_span,
                         bf.spectrum_span))
        return rows

    rows = once(run)
    print()
    print(simple_table(
        ["p", "paper ⌈p²/8⌉", "link-load LB", "First-Fit span",
         "Best-Fit span"],
        rows, title="EXT-A4: all-to-all RWA on a 96-node ring"))
    for p, paper, lb, ff, bf in rows:
        assert ff >= lb and bf >= lb      # nothing beats congestion
        assert lb <= paper + p // 4       # naive tie-break costs <= p/4
        assert ff <= lb + p // 2          # FF stays near the lower bound
        assert bf <= lb + p // 2


@pytest.mark.parametrize("policy", list(AssignmentPolicy))
def test_rwa_assignment_speed(benchmark, policy):
    """Micro-benchmark: one all-to-all step's RWA (p=16, N=96)."""
    reqs = _alltoall_requests(16, 96)

    def run():
        net = OpticalRingNetwork(OpticalRingSystem(
            num_nodes=96, num_wavelengths=256))
        return assign_wavelengths(net, reqs, policy)

    result = benchmark(run)
    assert result.spectrum_span >= result.max_link_load


def _churn_instance():
    """A step sequence with a stable hot prefix and a churning tail.

    The prefix is an all-to-all among 12 clustered nodes — it pins the
    max link demand, so tail churn never trips the delta path's
    demand-change fallback.  The tail is 12 short sparse arcs far from
    the cluster that shift by one node per step: exactly the
    add/remove deltas consecutive schedule steps produce.
    """
    n = 96
    cluster = [TransferRequest(a, b) for a in range(12) for b in range(12)
               if a != b]

    def step(t):
        return cluster + [TransferRequest(40 + 4 * i + t, 42 + 4 * i + t)
                          for i in range(12)]

    return n, [step(t) for t in range(9)]


def test_bench_rwa_incremental_step(once):
    """Delta-patched RWA across a churning step sequence vs a full
    re-solve per step.

    Both sides produce bit-for-bit identical assignments (asserted);
    the incremental side keeps the previous step's occupancy and only
    releases/re-places the changed suffix.  Folds the
    ``rwa_incremental_step`` section into ``BENCH_rwa.json`` — the
    second CI-gated summary (see ``check_bench_regression.py``).
    """
    n, steps = _churn_instance()
    policy = AssignmentPolicy.FIRST_FIT

    def fresh():
        return OpticalRingNetwork(OpticalRingSystem(
            num_nodes=n, num_wavelengths=256))

    def full():
        net = fresh()
        out = []
        for reqs in steps:
            net.clear()
            out.append(assign_wavelengths(net, reqs, policy))
        return out

    def incremental():
        net = fresh()
        base = assign_wavelengths(net, steps[0], policy)
        prev = RwaDelta.from_solution(policy, 1, steps[0], base)
        out = [base]
        for reqs in steps[1:]:
            rwa = assign_wavelengths_delta(net, reqs, policy, prev)
            assert rwa is not None  # churn must stay on the patch path
            prev = RwaDelta.from_solution(policy, 1, reqs, rwa)
            out.append(rwa)
        return out

    def run():
        want, got = full(), incremental()
        assert [w.assignments for w in want] == [g.assignments for g in got]
        return interleaved_best_times([full, incremental], 5)

    t_full, t_inc = once(run)
    speedup = t_full / t_inc
    print(f"\nincremental RWA ({len(steps)} steps, N={n}): full re-solve "
          f"{t_full*1e3:.2f} ms, delta-patched {t_inc*1e3:.2f} ms "
          f"-> {speedup:.1f}x")
    record_bench("rwa_incremental_step", {
        "nodes": n, "steps": len(steps),
        "requests_per_step": len(steps[0]),
        "reference_s": t_full, "engine_s": t_inc, "speedup": speedup},
        path=BENCH_RWA_JSON, benchmark="rwa")
    assert speedup >= 2.0


@pytest.mark.parametrize("cache", [False, True],
                         ids=["cache-off", "cache-on"])
def test_rwa_step_execution_speed(benchmark, cache):
    """Substrate-level counterpart: the memoized RWA hot path.

    Executes a schedule whose single step is the p=16 all-to-all on a
    96-node ring; with the cache on, every execution after the first
    reuses the memoized assignment (the planner/sweep access pattern).
    """
    from repro.collectives.schedule import (Schedule, Transfer,
                                            TransferOp)

    n = 96
    nodes = [i * (n // 16) for i in range(16)]
    sched = Schedule(num_nodes=n, num_chunks=1, name="bench-alltoall")
    sched.add_step(Transfer(src=a, dst=b, chunks=(0,),
                            op=TransferOp.REDUCE)
                   for a in nodes for b in nodes if a != b)
    ring = OpticalRingSubstrate if cache else UncachedRing
    sub = ring(OpticalRingSystem(num_nodes=n, num_wavelengths=256))
    wl = Workload(data_bytes=1e6)
    sub.execute(sched, wl)  # warm the network (and cache, when on)

    report = benchmark(sub.execute, sched, wl)
    assert report.total_time > 0


def test_bench_ring_step_scaling(once):
    """Per-step cost of a warm 4-rank ring all-reduce vs ring size.

    The collective is placed on warm 32/128/512/1024-node rings (64
    wavelengths), so every step hits the RWA cache: its cost should
    follow the step's 4 transfers, not the ring's nodes (the per-call
    ``reset`` is the only O(N) part left).  Times are interleaved
    across ring sizes.  Records the ``ring_step_scaling`` curve in
    ``BENCH_rwa.json`` (not gated).
    """
    sizes = (32, 128, 512, 1024)
    wl = Workload(data_bytes=1e6)
    arms = []
    for n in sizes:
        sub = OpticalRingSubstrate(default_optical(n, num_wavelengths=64))
        sched = place_schedule(generate_ring_allreduce(4),
                               range(n // 2, n // 2 + 4), n)
        sub.execute(sched, wl)  # warm the network and both memos
        arms.append(lambda sub=sub, sched=sched: sub.execute(sched, wl))
    steps = len(sched.steps)

    times = once(lambda: interleaved_best_times(arms, 15))
    per_step_us = [t / steps * 1e6 for t in times]
    growth = per_step_us[-1] / per_step_us[0]
    print("\nwarm 4-rank ring all-reduce, us/step: " + ", ".join(
        f"N={n} {us:.0f}" for n, us in zip(sizes, per_step_us))
          + f" ({growth:.1f}x from N={sizes[0]} to N={sizes[-1]})")
    record_bench("ring_step_scaling", {
        "nodes": list(sizes), "ranks": 4, "wavelengths": 64,
        "steps": steps, "us_per_step": per_step_us, "growth": growth},
        path=BENCH_RWA_JSON, benchmark="rwa")
    assert growth < 8.0
