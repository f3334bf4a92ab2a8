"""Shared fixtures and helpers for the benchmark harness.

Every bench prints the series it reproduces (the paper's rows), so the
``pytest benchmarks/ --benchmark-only`` log doubles as the experiment
record.

The perf benches (``test_bench_fluid.py``, ``test_bench_hier.py``)
share one machine-readable summary — ``BENCH_fluid.json`` at the repo
root, the artifact CI uploads and gates via
``check_bench_regression.py`` — so the path constant and the
record/measure helpers live here.

The off arms of the benches that time an always-on shortcut against
the path it replaces are the test suite's references
(``tests/ring_references.py``, ``tests/fluid_references.py``); the
``tests`` directory is put on the import path here so the benches
import the same classes the parity tests pin.
"""

import json
import sys
import time
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Where the machine-readable speedup summaries accumulate (repo root).
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_fluid.json"
BENCH_RWA_JSON = Path(__file__).resolve().parent.parent / "BENCH_rwa.json"
BENCH_SERVING_JSON = (Path(__file__).resolve().parent.parent
                      / "BENCH_serving.json")
BENCH_FAULTS_JSON = (Path(__file__).resolve().parent.parent
                     / "BENCH_faults.json")
BENCH_OCS_JSON = Path(__file__).resolve().parent.parent / "BENCH_ocs.json"
BENCH_COPLAN_JSON = (Path(__file__).resolve().parent.parent
                     / "BENCH_coplan.json")


def best_time(fn, repeats):
    """Best-of-``repeats`` wall time of ``fn()`` in seconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def interleaved_best_times(arms, rounds, clock=time.perf_counter):
    """Best-of-``rounds`` time of each callable in ``arms``.

    The arms run round by round (every arm once per round, in order),
    so a burst of load on a shared host slows all arms alike instead of
    only the one it happens to overlap — the ratio benches compare the
    returned times, listed in arm order.  ``clock`` defaults to wall
    time; arms that stay in this process may pass
    ``time.process_time``, whose CPU seconds do not count the time the
    host spends on other processes.
    """
    best = [float("inf")] * len(arms)
    for _ in range(rounds):
        for i, fn in enumerate(arms):
            t0 = clock()
            fn()
            best[i] = min(best[i], clock() - t0)
    return best


def record_bench(section, payload, path=BENCH_JSON, benchmark="fluid-engine"):
    """Merge one section into the summary at ``path`` (creating it if
    needed).  ``benchmark`` names the suite on first write only."""
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            data = {}
    data.setdefault("benchmark", benchmark)
    data.setdefault("unit", "seconds")
    data[section] = payload
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


@pytest.fixture
def once(benchmark):
    """Run an experiment exactly once under the benchmark fixture.

    Experiment benches measure a *simulation result*, not CPU micro-
    performance; a single round keeps the harness fast while still
    recording wall time per experiment.
    """

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1,
                                  warmup_rounds=0)

    return run
