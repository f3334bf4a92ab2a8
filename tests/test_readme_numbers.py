"""README's bench-backed performance rows quote the committed records.

Each row of the README performance table that a ``benchmarks/`` bench
records names its ``benchmarks/BENCH_*.json`` file and section here.
Its baseline, engine and speedup cells must equal the section's
``reference_s``, ``engine_s`` and ``speedup``, rounded to the decimals
the cell shows; re-recording a bench without updating its row fails
this test.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Row label prefix -> (committed record, section).
BENCH_ROWS = {
    "64-flow synchronous step, cold": ("BENCH_fluid.json",
                                       "solver_micro_cold"),
    "64-flow step via `step_time`": ("BENCH_fluid.json", "step_cache_hit"),
    "`sweep substrates` cell": ("BENCH_fluid.json", "sweep_cell_end_to_end"),
    "1024-flow step": ("BENCH_fluid.json", "sparse_large_batch"),
    "N=64 ring all-reduce schedule": ("BENCH_fluid.json", "schedule_fused"),
    "hier-rack N=64": ("BENCH_fluid.json", "hier_rack_warm_reuse"),
    "8-cell N=128 e-ring bandwidth sweep": ("BENCH_fluid.json",
                                            "sweep_shared_compile"),
    "incremental RWA": ("BENCH_rwa.json", "rwa_incremental_step"),
    "serving: 1000-job stream": ("BENCH_serving.json",
                                 "serving_warm_throughput"),
    "degraded N=32 ring": ("BENCH_faults.json", "fault_repair_vs_resolve"),
}

#: Seconds -> the unit a cell quotes.
SCALE = {"s": 1.0, "ms": 1e3, "µs": 1e6}


def _performance_rows():
    text = (ROOT / "README.md").read_text()
    table = text.split("| benchmark | baseline | engine | speedup |")[1]
    rows = []
    for line in table.splitlines()[2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def _matches(cell, value, scale=1.0):
    """``cell`` is ``value * scale`` at the decimals it shows."""
    digits = cell.split(".")[1] if "." in cell else ""
    return f"{value * scale:.{len(digits)}f}" == cell


@pytest.mark.parametrize("label", sorted(BENCH_ROWS))
def test_row_quotes_its_committed_record(label):
    filename, section = BENCH_ROWS[label]
    record = json.loads(
        (ROOT / "benchmarks" / filename).read_text())[section]
    rows = [r for r in _performance_rows() if r[0].startswith(label)]
    assert len(rows) == 1, label
    _, baseline, engine, speedup = rows[0]
    for cell, key in ((baseline, "reference_s"), (engine, "engine_s")):
        number, unit = cell.split()
        assert _matches(number, record[key], SCALE[unit]), (label, key)
    assert speedup.startswith("**") and speedup.endswith("x**")
    assert _matches(speedup[2:-3], record["speedup"]), (label, "speedup")
