"""Serving-layer benchmarks (CI-gated, BENCH_serving.json).

Three claims the serving engine makes, each measured on streams
through one shared warm substrate:

* **memoization pays** — a Poisson mix collapses onto a few dozen
  (placement, message-sizes) profile classes, so the engine's
  schedule/profile caches skip the substrate execution for all but the
  first job of each class.  The gated ``serving_warm_throughput``
  section compares the warm engine against a no-memoization reference
  (every job profiled from scratch) on identical traffic — identical
  reports asserted first, then the wall-clock ratio recorded
  (machine-independent: both paths slow down together);
* **the size-adaptive switch pays** — on a bimodal mix of
  latency-bound activation reduces and bandwidth-bound gradient
  reduces, dispatching each message by size beats pinning either
  algorithm fleet-wide on throughput, mean JCT, *and* p99 JCT;
* **an event costs the same at any queue depth** — the
  ``serving_scaling`` section runs 1k, 4k and 16k jobs of the same
  overloaded stream (the wait queue grows with the stream) and gates
  wall-clock jobs/s at 16k against 1k, a ratio on one host.
"""

from conftest import (BENCH_SERVING_JSON, best_time as _time,
                      record_bench as _record)

from repro.config import default_electrical
from repro.core.substrates import get_substrate
from repro.serving import (ServingEngine, adaptive_policy, fixed_policy,
                           poisson_traffic, trace_traffic)

#: The shared fabric: a 32-port electrical switch (the shape with a
#: genuine latency/bandwidth crossover between RD and ring).
CAPACITY = 32
SYSTEM = default_electrical(CAPACITY)
NUM_JOBS = 1000
#: Stream lengths of the scaling curve; at 200 arrivals/s the queue
#: reaches nearly the whole stream.
SCALING_JOBS = (1000, 4000, 16000)


class _ColdProfileEngine(ServingEngine):
    """Reference: the same engine with memoization defeated.

    Clearing the schedule/profile caches before every profile forces
    each job to execute its full message batch on the substrate — what
    serving would cost if every arrival were priced from scratch.
    """

    def _profile(self, job, nodes):
        self._profiles.clear()
        self._schedules.clear()
        return super()._profile(job, nodes)


def _engine(substrate, cls=ServingEngine, collectives=None):
    return cls(substrate_name="electrical-switch", system=SYSTEM,
               substrate=substrate,
               collectives=collectives or adaptive_policy())


def test_bench_serving_warm_throughput(once):
    """1000 jobs, warm memoized engine vs per-job cold profiling."""
    jobs = poisson_traffic(num_jobs=NUM_JOBS, arrival_rate=200.0, seed=0)
    sub = get_substrate("electrical-switch", SYSTEM)

    def warm():
        return _engine(sub).run(jobs)

    def cold():
        return _engine(sub, cls=_ColdProfileEngine).run(jobs)

    def run():
        warm_rep = warm()  # primes the substrate's own caches too
        cold_rep = cold()
        # Memoization must not change answers.
        assert cold_rep.makespan == warm_rep.makespan
        assert cold_rep.jct() == warm_rep.jct()
        assert cold_rep.algorithm_mix == warm_rep.algorithm_mix
        t_warm = _time(warm, 3)
        t_cold = _time(cold, 2)
        return warm_rep, t_cold, t_warm

    rep, t_cold, t_warm = once(run)
    speedup = t_cold / t_warm
    wall_rate = NUM_JOBS / t_warm
    print(f"\nserving warm throughput ({NUM_JOBS} jobs, {CAPACITY}-port "
          f"switch): cold-profile {t_cold:.2f} s, warm {t_warm:.2f} s "
          f"-> {speedup:.2f}x ({wall_rate:.0f} jobs/s wall, "
          f"{rep.throughput_jobs:.1f} jobs/s simulated)")
    _record("serving_warm_throughput", {
        "jobs": NUM_JOBS, "capacity": CAPACITY,
        "reference_s": t_cold, "engine_s": t_warm, "speedup": speedup,
        "wall_jobs_per_s": wall_rate,
        "simulated_jobs_per_s": rep.throughput_jobs,
        "jct_p99_s": rep.jct(99),
    }, path=BENCH_SERVING_JSON, benchmark="serving")
    assert rep.num_jobs == NUM_JOBS
    assert speedup >= 1.5


def test_bench_serving_adaptive_beats_fixed(once):
    """The size switch wins on a mixed small/large stream."""
    rows = []
    for i in range(200):
        small = i % 2 == 0
        rows.append(dict(model="alexnet", arrival_time=i * 0.002,
                         num_steps=6 if small else 4,
                         num_nodes=(4, 8, 16)[i % 3],
                         message_sizes=((128e3,) * 4 if small
                                        else (32e6,))))
    jobs = trace_traffic(rows)
    sub = get_substrate("electrical-switch", SYSTEM)

    def run():
        out = {}
        for label, coll in (("adaptive", adaptive_policy()),
                            ("ring", fixed_policy("ring")),
                            ("rd", fixed_policy("recursive-doubling"))):
            out[label] = _engine(sub, collectives=coll).run(jobs)
        return out

    reps = once(run)
    print()
    for label, rep in reps.items():
        print(f"  {label:9s} {rep.throughput_jobs:7.2f} jobs/s  "
              f"jct mean {rep.jct()*1e3:7.2f} ms  "
              f"p99 {rep.jct(99)*1e3:7.2f} ms  [{rep.collectives}]")
    adapt, ring, rd = reps["adaptive"], reps["ring"], reps["rd"]
    _record("serving_adaptive_switch", {
        "jobs": len(jobs),
        "adaptive_jct_mean_s": adapt.jct(),
        "ring_jct_mean_s": ring.jct(),
        "rd_jct_mean_s": rd.jct(),
        "adaptive_throughput": adapt.throughput_jobs,
        "ring_throughput": ring.throughput_jobs,
        "rd_throughput": rd.throughput_jobs,
    }, path=BENCH_SERVING_JSON, benchmark="serving")
    # The switch must measurably beat BOTH fixed arms on this mix.
    assert adapt.jct() < ring.jct()
    assert adapt.jct() < rd.jct()
    assert adapt.throughput_jobs > ring.throughput_jobs
    assert adapt.throughput_jobs > rd.throughput_jobs
    assert adapt.jct(99) < min(ring.jct(99), rd.jct(99))


def test_bench_serving_scaling(once):
    """Wall-clock jobs/s at 1k, 4k and 16k jobs of one overloaded
    stream: 16k must keep at least half the 1k rate."""
    sub = get_substrate("electrical-switch", SYSTEM)
    streams = {n: poisson_traffic(num_jobs=n, arrival_rate=200.0, seed=0)
               for n in SCALING_JOBS}

    def run():
        _engine(sub).run(streams[SCALING_JOBS[0]])  # warm the substrate
        out = {}
        for n, jobs in streams.items():
            reps = []
            # The short 1k run is the noisiest, so it gets best of 3.
            secs = _time(lambda: reps.append(_engine(sub).run(jobs)),
                         3 if n == SCALING_JOBS[0] else 1)
            out[n] = (reps[-1], secs)
        return out

    runs = once(run)
    rates = {n: n / secs for n, (_, secs) in runs.items()}
    lo, hi = SCALING_JOBS[0], SCALING_JOBS[-1]
    ratio = rates[hi] / rates[lo]
    print()
    for n, (rep, secs) in runs.items():
        print(f"  {n:6d} jobs: {secs:6.2f} s -> {rates[n]:6.0f} jobs/s "
              f"wall (max queue depth {rep.max_queue_depth})")
    print(f"  {hi} vs {lo} jobs: {ratio:.2f}x the jobs/s")
    _record("serving_scaling", {
        "capacity": CAPACITY, "arrival_rate": 200.0,
        "jobs": list(SCALING_JOBS),
        "engine_s": [runs[n][1] for n in SCALING_JOBS],
        "wall_jobs_per_s": [rates[n] for n in SCALING_JOBS],
        "max_queue_depth": [runs[n][0].max_queue_depth
                            for n in SCALING_JOBS],
        "rate_ratio": ratio,
    }, path=BENCH_SERVING_JSON, benchmark="serving")
    for n, (rep, _) in runs.items():
        assert rep.num_jobs == n
    assert ratio >= 0.5
