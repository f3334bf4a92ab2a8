"""One benchmark repetition in a fresh process; ``run.py`` starts it.

The process imports the library, builds the workload's inputs
(``setup_s`` runs from the parent's spawn timestamp ``--t0`` to here),
times a fixed host probe, clears the process-wide substrate pool with
no cache store attached, and runs the workload once (``wall_s``).  It
then checks the simulated outputs — invariants at every seed, exact
equality with ``expected/`` where a value is committed for the seed —
and prints one JSON line.  ``--trace 1`` runs the workload under the
layer tracer and adds per-layer totals and counters.

Exit codes: 0 with a JSON line (even when the workload raised or its
outputs mismatch: that is a failed operation, reported in the line);
3 when setup fails, e.g. the library cannot be imported from
``<root>/src``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
#: ``describe()`` counters of the delta solvers (not in cache_stats()).
DELTA_KEYS = ("rwa_delta_patched", "rwa_delta_fallbacks",
              "decomp_delta_patched", "decomp_delta_fallbacks",
              "lookahead_reconfigs_saved")
SETUP_FAILED = 3


def host_probe() -> float:
    """Seconds for a fixed pure-Python + numpy kernel (host drift)."""
    import numpy as np
    t0 = perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    a = np.arange(40_000, dtype=float).reshape(200, 200) / 4e4
    for _ in range(30):
        a = np.tanh(a @ a / 200.0)
    return perf_counter() - t0


def expected_outputs(workload: Any, seed: int) -> Any:
    """Committed outputs for ``seed`` (``None`` when none are)."""
    path = EXPECTED / f"{workload.name}.json"
    if not path.exists():
        return None
    table = json.loads(path.read_text())
    return table.get(str(seed) if workload.seeded else "any")


def _dumps(obj: Any, pad: str = "") -> str:
    """JSON with one line per innermost list, so diffs show one row."""
    inner = pad + " "
    if isinstance(obj, dict):
        return "{\n" + ",\n".join(
            f"{inner}{json.dumps(k)}: {_dumps(v, inner)}"
            for k, v in sorted(obj.items())) + f"\n{pad}}}"
    if isinstance(obj, list) and any(isinstance(x, (dict, list))
                                     for x in obj):
        return "[\n" + ",\n".join(inner + _dumps(x, inner)
                                  for x in obj) + f"\n{pad}]"
    return json.dumps(obj)


def record_outputs(workload: Any, seed: int, outputs: Any) -> None:
    """Store ``outputs`` as the expected values for ``seed``."""
    path = EXPECTED / f"{workload.name}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[str(seed) if workload.seeded else "any"] = outputs
    EXPECTED.mkdir(exist_ok=True)
    path.write_text(_dumps(table) + "\n")


def differences(want: Any, got: Any, path: str = "",
                limit: int = 5) -> List[str]:
    """The first ``limit`` paths where ``got`` differs from ``want``."""
    out: List[str] = []

    def walk(w: Any, g: Any, p: str) -> None:
        if len(out) >= limit:
            return
        if isinstance(w, dict) and isinstance(g, dict):
            for k in sorted(set(w) | set(g)):
                walk(w.get(k), g.get(k), f"{p}.{k}")
        elif (isinstance(w, list) and isinstance(g, list)
              and len(w) == len(g)):
            for i, (a, b) in enumerate(zip(w, g)):
                walk(a, b, f"{p}[{i}]")
        elif w != g or type(w) is not type(g):
            out.append(f"{p or '.'}: expected {w!r}, got {g!r}")

    walk(want, got, path)
    return out


def rate(hits: int, misses: int) -> float:
    """Hit rate, 0.0 when nothing was looked up."""
    return hits / (hits + misses) if hits + misses else 0.0


def layer_report(tracer: Any) -> Dict[str, Any]:
    """Per-layer metrics and the raw counts behind them."""
    from repro.core.substrates import cache_stats

    calls, self_s = tracer.layer_totals()
    counts: Dict[str, int] = {f"{k}.calls": v for k, v in calls.items()}
    counts["collectives.transfers"] = tracer.transfers
    counts["substrate.steps"] = tracer.steps
    substrates = tracer.objects("substrate")
    for kind, row in sorted(cache_stats(substrates).items()):
        for stat in ("hits", "misses", "skipped"):
            counts[f"cache.{kind}.{stat}"] = int(row[stat])
    for key in DELTA_KEYS:
        counts[f"describe.{key}"] = sum(
            int(v) for sub in substrates
            for k, v in sub.describe().parameters if k == key)
    for key in ("pattern", "compile"):
        hits = misses = 0
        for model in tracer.objects("contention"):
            sim = model.simulator
            if sim is not None:
                st = getattr(sim, f"{key}_cache_info")()
                hits, misses = hits + st.hits, misses + st.misses
        counts[f"contention.{key}.hits"] = hits
        counts[f"contention.{key}.misses"] = misses

    def c(key: str) -> int:
        return counts.get(key, 0)

    metrics: Dict[str, float] = {}
    for name in calls:
        metrics[f"{name}.calls"] = float(calls[name])
        metrics[f"{name}.self_s"] = self_s[name]
    metrics["collectives.transfers"] = float(tracer.transfers)
    metrics["substrate.steps"] = float(tracer.steps)
    metrics["optical.rwa.hit_rate"] = rate(c("cache.rwa.hits"),
                                           c("cache.rwa.misses"))
    patched = c("describe.rwa_delta_patched")
    metrics["optical.rwa.delta_patch_ratio"] = rate(
        patched, c("describe.rwa_delta_fallbacks"))
    metrics["fluid.hit_rate"] = rate(
        c("cache.fluid.hits") + c("contention.pattern.hits"),
        c("cache.fluid.misses") + c("contention.pattern.misses"))
    metrics["fluid.compile_hit_rate"] = rate(
        c("cache.compile.hits") + c("contention.compile.hits"),
        c("cache.compile.misses") + c("contention.compile.misses"))
    metrics["program.step_hit_rate"] = rate(c("cache.step.hits"),
                                            c("cache.step.misses"))
    return {"metrics": metrics, "counts": counts,
            "admit_by_depth": tracer.depth_curve("scheduler.admit")}


def run_once(workload: Any, inputs: Any, seed: int, trace: bool,
             trace_out: str = "", record: bool = False) -> Dict[str, Any]:
    """Run ``workload`` once from a cold pool and check its outputs."""
    from repro.core.substrates import (clear_substrate_pool,
                                       set_pool_cache_store)

    out: Dict[str, Any] = {"probe_s": host_probe()}
    set_pool_cache_store(None)
    clear_substrate_pool()
    tracer = None
    if trace:
        tracer = Tracer().install()
    t0 = perf_counter()
    try:
        result = workload.run(inputs)
    except Exception:
        out["wall_s"] = perf_counter() - t0
        out["error"] = traceback.format_exc(limit=8)
        return out
    finally:
        if tracer is not None:
            tracer.uninstall()
    out["wall_s"] = perf_counter() - t0
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                          / 1024.0)
    sim = workload.outputs(inputs, result)
    out["digest"] = workloads.digest(sim)
    out["invariants"] = workload.invariants(inputs, sim, result)
    out["sim"] = workload.sim_metrics(inputs, sim, result)
    if record:
        record_outputs(workload, seed, sim)
    want = expected_outputs(workload, seed)
    out["checked"] = want is not None
    out["mismatches"] = ([] if want is None
                         else differences(want, json.loads(
                             workloads.canonical(sim))))
    if tracer is not None:
        out["layers"] = layer_report(tracer)
        if trace_out:
            path = Path(trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "workload": workload.name, "seed": seed,
                "admit_by_depth": out["layers"]["admit_by_depth"],
                "counts": out["layers"]["counts"],
                **tracer.dump()}))
    return out


def main(argv: List[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--t0", type=float, required=True,
                   help="parent's time.monotonic() just before spawning")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default="")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record", action="store_true")
    args = p.parse_args(argv)
    try:
        import repro
        src = ROOT / "src"
        if Path(repro.__file__).resolve().parent.parent != src:
            raise ImportError(f"repro imported from {repro.__file__}, "
                              f"not from {src}")
        workload = workloads.get(args.workload)
        inputs = workload.prepare(args.seed)
    except Exception:
        print(f"worker: setup failed\n{traceback.format_exc(limit=4)}",
              file=sys.stderr)
        return SETUP_FAILED
    setup_s = time.monotonic() - args.t0
    result: Dict[str, Any] = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(run_once(workload, inputs, args.seed,
                               bool(args.trace), args.trace_out,
                               args.record))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
