"""Repository benchmark runner (see ``BENCHMARK.json``).

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list
    python3 perfbench/run.py --workload NAME --seed N --record

Every repetition runs in a fresh worker process (``worker.py``) with
``PYTHONPATH=<root>/src`` and one BLAS/OpenMP thread, started only after
the previous one has exited: one closed-loop caller, one process at a
time, cold process-wide caches in every timed run — what a CLI
invocation pays.

``--trace 0`` repeats the workload until the next repetition would
overrun ``--seconds`` (default: ``run_seconds`` in ``BENCHMARK.json``;
at least once), adds set-up-only workers until
``setup_s`` has ``MIN_SETUPS`` samples, and reports the medians of the
end-to-end metrics.  ``--trace 1`` runs one untraced and two traced
repetitions, checks that the traced ones agree on every call count and
cache counter, and reports every per-layer metric; the span table of
the first traced repetition is written to ``perfbench/out/``.

The last stdout line is the JSON result.  A failed operation is a
repetition that raised, broke an invariant, or whose simulated outputs
differ from ``expected/`` or from the run's other repetitions.  When
the library cannot be imported from ``<root>/src`` the runner exits
with status 2 and prints no result.

``--list`` prints every workload and metric by name, with unit and
direction, and for per-layer metrics the layer, the end-to-end metric
it should move, and the workloads where it works or stays flat.  ``--record`` runs one
repetition and stores its simulated outputs as the expected values for
the seed (the fixed-input workloads keep one entry for every seed).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from layers import per_layer_info
from worker import SETUP_FAILED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

DEFAULT_SEED = 0
MIN_SETUPS = 5
TRACED_REPS = 2
#: Wall-clock budget for one invocation, below the 180 s limit.
BUDGET_S = 170.0


class SetupError(RuntimeError):
    """The worker could not import the library or build inputs."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def spawn(workload: str, seed: int, timeout: float, *, trace: bool = False,
          setup_only: bool = False, trace_out: str = "",
          record: bool = False) -> Dict[str, Any]:
    """Run one worker process to completion and return its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(trace))]
    if setup_only:
        cmd.append("--setup-only")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if record:
        cmd.append("--record")
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"error": f"worker timed out after {timeout:.0f} s",
                "elapsed_s": time.monotonic() - t0}
    if proc.returncode == SETUP_FAILED:
        raise SetupError(proc.stderr.strip())
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}",
                "elapsed_s": time.monotonic() - t0}
    result = json.loads(lines[-1])
    result["elapsed_s"] = time.monotonic() - t0
    return result


def problems(rep: Dict[str, Any]) -> List[str]:
    """Why a repetition counts as a failed operation (empty = passed)."""
    if "error" in rep:
        return [rep["error"]]
    return ([f"invariant: {m}" for m in rep["invariants"]]
            + [f"expected output mismatch: {m}" for m in rep["mismatches"]])


def check_reps(reps: List[Dict[str, Any]]) -> List[int]:
    """Indices of failed repetitions; prints the reasons.

    Repetitions of one run must agree on the output digest even where
    no expected values are committed for the seed."""
    digests = [r.get("digest") for r in reps if "digest" in r]
    failed = []
    for i, rep in enumerate(reps):
        why = problems(rep)
        if "digest" in rep and rep["digest"] != digests[0]:
            why.append(f"digest {rep['digest']} differs from the first "
                       f"repetition's {digests[0]}")
        if why:
            failed.append(i)
            for line in why:
                print(f"rep {i}: FAILED {line}")
    return failed


def describe_rep(i: int, rep: Dict[str, Any]) -> str:
    parts = [f"rep {i}:"]
    for key, unit in (("wall_s", "s"), ("setup_s", "s"),
                      ("peak_rss_mb", "MiB"), ("probe_s", "s")):
        if key in rep:
            parts.append(f"{key}={rep[key]:.4f}{unit}")
    if rep.get("checked"):
        parts.append("checked against expected/")
    return " ".join(parts)


def result_line(correct: bool, attempted: int, failed: int,
                values: Dict[str, float], metrics: List[Dict[str, Any]]
                ) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in metrics}})


def run_untraced(spec: Dict[str, Any], workload: str, seed: int,
                 seconds: float, start: float) -> int:
    deadline = start + min(seconds, BUDGET_S)
    reps: List[Dict[str, Any]] = []
    while True:
        left = start + BUDGET_S - time.monotonic()
        reps.append(spawn(workload, seed, left))
        longest = max(r["elapsed_s"] for r in reps)
        if time.monotonic() + longest > deadline:
            break
    setups = [r["setup_s"] for r in reps if "setup_s" in r]
    while len(setups) < MIN_SETUPS:
        left = start + BUDGET_S - time.monotonic()
        extra = spawn(workload, seed, left, setup_only=True)
        if "setup_s" not in extra:
            break
        setups.append(extra["setup_s"])
    for i, rep in enumerate(reps):
        print(describe_rep(i, rep))
    failed = check_reps(reps)
    timed = [r for r in reps if "wall_s" in r] or reps
    done = [r for r in reps if "digest" in r]
    if done:
        print(f"digest {workload} seed={seed}: {done[0]['digest']}")
        print("simulated: " + json.dumps(done[0]["sim"], sort_keys=True))
    probes = [r["probe_s"] for r in reps if "probe_s" in r]
    if probes:
        print(f"host.probe_s median {statistics.median(probes):.4f} s "
              f"over {len(probes)} workers")
    print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    values = {
        "wall_s": statistics.median(r.get("wall_s", r["elapsed_s"])
                                    for r in timed),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(
            r["peak_rss_mb"] for r in done) if done else 0.0,
    }
    print(result_line(not failed and len(done) == len(reps), len(reps),
                      len(failed), values, spec["end_to_end"]))
    return 0


def run_traced(spec: Dict[str, Any], workload: str, seed: int,
               start: float) -> int:
    def left() -> float:
        return start + BUDGET_S - time.monotonic()

    base = spawn(workload, seed, left())
    trace_out = str(OUT / f"trace-{workload}-seed{seed}.json")
    traced = [spawn(workload, seed, left(), trace=True,
                    trace_out=trace_out if i == 0 else "")
              for i in range(TRACED_REPS)]
    reps = [base] + traced
    for i, rep in enumerate(reps):
        print(describe_rep(i, rep) + (" (traced)" if i else ""))
    failed = set(check_reps(reps))
    layered = [r for r in traced if "layers" in r]
    counts = [r["layers"]["counts"] for r in layered]
    for i, other in enumerate(counts[1:], start=2):
        diff = sorted(k for k in set(counts[0]) | set(other)
                      if counts[0].get(k) != other.get(k))
        if diff:
            failed.add(i)
            print(f"rep {i}: FAILED traced repetitions disagree on "
                  + ", ".join(f"{k} ({counts[0].get(k)} vs {other.get(k)})"
                              for k in diff[:10]))
    values = {m["name"]: 0.0 for m in spec["per_layer"]}
    if layered:
        values.update(layered[0]["layers"]["metrics"])
        values.update(layered[0]["sim"])
        for name in values:
            if name.endswith(".self_s"):
                values[name] = statistics.median(
                    r["layers"]["metrics"][name] for r in layered)
        curve = layered[0]["layers"]["admit_by_depth"]
        if curve:
            print("scheduler.admit mean self time by queue depth: "
                  + ", ".join(f"{b['depth_from']}+ {b['mean_self_us']:.1f}us"
                              f" x{b['calls']}" for b in curve))
        print(f"span table: {trace_out}")
    probes = [r["probe_s"] for r in reps if "probe_s" in r]
    values["host.probe_s"] = statistics.median(probes) if probes else 0.0
    if "wall_s" in base and layered:
        values["trace.overhead_ratio"] = (
            statistics.median(r["wall_s"] for r in layered)
            / base["wall_s"] - 1.0)
    undeclared = sorted(set(values) - {m["name"] for m in spec["per_layer"]})
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    correct = not failed and len(layered) == TRACED_REPS
    print(result_line(correct, len(reps), len(failed), values,
                      spec["per_layer"]))
    return 0


def list_metrics(spec: Dict[str, Any]) -> int:
    info = per_layer_info()
    print("workloads (name: inputs and why):")
    for w in spec["workloads"]:
        print(f"  {w['name']}: {w['why']}")
    print("end-to-end metrics (--trace 0): name unit better bound")
    for m in spec["end_to_end"]:
        print(f"  {m['name']} {m['unit']} {m['better']} {m['bound']}")
    print("per-layer metrics (--trace 1): name unit better | layer "
          "| should move | works on | stays flat on")
    for m in spec["per_layer"]:
        print(f"  {m['name']} {m['unit']} {m['better']} | "
              + " | ".join(info[m["name"]]))
    return 0


def main(argv: List[str]) -> int:
    start = time.monotonic()
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # running worker instead of orphaning it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    p = argparse.ArgumentParser(
        description="Run one benchmark workload (see BENCHMARK.json).")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float,
                   help="measuring time (default: run_seconds in "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--list", action="store_true",
                   help="print every workload and metric, then exit")
    p.add_argument("--record", action="store_true",
                   help="store this seed's simulated outputs in expected/")
    args = p.parse_args(argv)
    spec = load_spec()
    if args.list:
        return list_metrics(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    try:
        if args.record:
            rep = spawn(args.workload, args.seed, BUDGET_S, record=True)
            print(describe_rep(0, rep))
            return 1 if check_reps([rep]) else 0
        if args.trace:
            return run_traced(spec, args.workload, args.seed, start)
        seconds = (spec["run_seconds"] if args.seconds is None
                   else args.seconds)
        return run_untraced(spec, args.workload, args.seed, seconds, start)
    except SetupError as exc:
        print(f"run.py: cannot set up {args.workload}: {exc}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
