#!/usr/bin/env python3
"""Gate the perf micro-benchmarks against their committed baselines.

Usage::

    python benchmarks/check_bench_regression.py \
        CURRENT.json BASELINE.json [CURRENT2.json BASELINE2.json ...] \
        [--summary OUT.json]

Compares the *speedup ratios* (engine vs the in-tree frozen reference
implementation, measured on the same host in the same run), which makes
the gate machine-independent: CI hosts are slower than dev laptops, but
the engine and the reference slow down together.  The job fails when
any gated section's speedup drops below half of the committed
baseline's (i.e. a >2x relative regression).

Three sections are not wall-clock speedups but deterministic
*simulated* results (``EXACT_SECTIONS``: lookahead vs greedy OCS
programs, co-plan vs best fixed plan, the adaptive serving switch);
they fail unless every field equals the committed baseline's, and print
as ``exact`` rows.  Sections that record simulated results next to
wall-clock ones (``EXACT_FIELDS``) fail unless each listed simulated
field equals the baseline's; their timings are not compared, and a
gated section among them keeps its speedup floor as well.

Every gated section is always checked — a bad or missing entry is
recorded as a failure and the scan continues, so one CI run reports the
complete set of regressions side by side instead of the first one.
``--summary`` additionally writes one combined machine-readable JSON
(all sections from all CURRENT files plus the per-section verdicts),
the artifact CI uploads.
"""

from __future__ import annotations

import json
import sys

#: A section regresses when its speedup falls below baseline / FACTOR.
FACTOR = 2.0

#: Sections that must be present in their baseline file and are gated.
GATED_SECTIONS = ("solver_micro_cold", "step_cache_hit",
                  "sweep_cell_end_to_end", "sparse_large_batch",
                  "schedule_fused", "hier_rack_warm_reuse",
                  "sweep_shared_compile", "rwa_incremental_step",
                  "serving_warm_throughput", "fault_repair_vs_resolve",
                  "ocs_delta_decompose")

#: Sections of simulated results: every field must equal the baseline's.
EXACT_SECTIONS = ("ocs_lookahead_vs_greedy", "coplan_vs_best_fixed",
                  "serving_adaptive_switch")

#: The simulated fields of sections that also record wall-clock ones:
#: each listed field must equal the baseline's.
EXACT_FIELDS = {
    "coplan_scaling": ("model", "nodes", "best", "best_total_s",
                       "simulated_steps", "fluid_lookups"),
    "fault_serving_stream": ("availability", "capacity", "completed",
                             "failed", "fault_events", "jobs",
                             "preemptions", "retries"),
    "serving_warm_throughput": ("jobs", "capacity", "jct_p99_s",
                                "simulated_jobs_per_s"),
    "ring_step_scaling": ("nodes", "ranks", "steps", "wavelengths"),
}

#: Every checked section, each once, in report order.
_ALL_SECTIONS = tuple(dict.fromkeys(
    GATED_SECTIONS + EXACT_SECTIONS + tuple(EXACT_FIELDS)))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def _speedup(entry):
    if "speedup" not in entry:
        return "-"
    try:
        return f"{float(entry['speedup']):.2f}x"
    except (TypeError, ValueError):
        return "?"


def _check_exact(section, current, baseline, rows, failures, fields=None):
    """Gate one simulated-result section: equal field for field (only
    ``fields`` when given; their rows show no speedup)."""
    shown = _speedup if fields is None else (lambda entry: "-")
    base = baseline[section]
    cur = current.get(section)
    if not isinstance(base, dict):
        failures.append(f"{section}: unreadable baseline entry")
        rows.append((section, "?", "?", "exact", "BAD-BASELINE"))
        return
    if not isinstance(cur, dict):
        failures.append(f"{section}: missing from current results")
        rows.append((section, shown(base), "-", "exact", "MISSING"))
        return
    keys = sorted(set(base) | set(cur)) if fields is None else fields
    changed = [f"{k}: {base.get(k)!r} -> {cur.get(k)!r}"
               for k in keys
               if k not in base or k not in cur or base[k] != cur[k]]
    rows.append((section, shown(base), shown(cur), "exact",
                 "CHANGED" if changed else "ok"))
    if changed:
        failures.append(f"{section}: simulated result differs from the "
                        f"committed baseline ({'; '.join(changed)})")


def _check_pair(current, baseline, rows, failures):
    """Gate one (CURRENT, BASELINE) file pair; returns sections seen."""
    seen = set()
    for section in _ALL_SECTIONS:
        if section not in baseline:
            continue
        seen.add(section)
        if section in EXACT_FIELDS:
            _check_exact(section, current, baseline, rows, failures,
                         EXACT_FIELDS[section])
        if section in EXACT_SECTIONS:
            _check_exact(section, current, baseline, rows, failures)
        if section not in GATED_SECTIONS:
            continue
        try:
            base = float(baseline[section]["speedup"])
        except (KeyError, TypeError, ValueError) as exc:
            failures.append(f"{section}: unreadable baseline entry ({exc})")
            rows.append((section, "?", "?", "?", "BAD-BASELINE"))
            continue
        floor = base / FACTOR
        try:
            cur = float(current[section]["speedup"])
        except (KeyError, TypeError, ValueError):
            failures.append(f"{section}: missing from current results")
            rows.append((section, f"{base:.2f}x", "-", f"{floor:.2f}x",
                         "MISSING"))
            continue
        ok = cur >= floor
        rows.append((section, f"{base:.2f}x", f"{cur:.2f}x",
                     f"{floor:.2f}x", "ok" if ok else "REGRESSED"))
        if not ok:
            failures.append(
                f"{section}: speedup {cur:.2f}x < floor {floor:.2f}x "
                f"(baseline {base:.2f}x)")
    return seen


def _print_table(rows):
    headers = ("section", "baseline", "current", "floor", "status")
    widths = [max(len(h), *(len(str(r[i])) for r in rows)) if rows
              else len(h) for i, h in enumerate(headers)]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)))


def main(argv: list[str]) -> int:
    args = list(argv[1:])
    summary_path = None
    if "--summary" in args:
        i = args.index("--summary")
        try:
            summary_path = args[i + 1]
        except IndexError:
            print(__doc__)
            return 2
        del args[i:i + 2]
    if not args or len(args) % 2:
        print(__doc__)
        return 2
    pairs = list(zip(args[::2], args[1::2]))

    rows, failures, seen = [], [], set()
    combined = {"factor": FACTOR, "files": [], "sections": {}}
    for cur_path, base_path in pairs:
        try:
            current, baseline = _load(cur_path), _load(base_path)
        except (OSError, json.JSONDecodeError) as exc:
            failures.append(f"{cur_path} vs {base_path}: unreadable ({exc})")
            continue
        combined["files"].append(cur_path)
        for key, value in current.items():
            if isinstance(value, dict):
                combined["sections"].setdefault(key, {}).update(value)
        seen |= _check_pair(current, baseline, rows, failures)

    for section in _ALL_SECTIONS:
        if section not in seen:
            print(f"[skip] {section}: not in any baseline")
    _print_table(rows)

    for section, base, cur, floor, status in rows:
        entry = combined["sections"].setdefault(section, {})
        # A section with two rows (exact fields and a speedup floor)
        # reports the failing one.
        if entry.get("gate", {}).get("status", "ok") == "ok":
            entry["gate"] = {"baseline": base, "floor": floor,
                             "status": status}
    combined["failures"] = failures
    if summary_path is not None:
        with open(summary_path, "w") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"\ncombined summary written to {summary_path}")

    if failures:
        print("\nbenchmark regression detected:")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbenchmarks within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
