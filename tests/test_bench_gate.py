"""The benchmark gate: simulated results exact, speedups ratio-gated."""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE = Path(__file__).resolve().parents[1] / "benchmarks" / \
    "check_bench_regression.py"
_spec = importlib.util.spec_from_file_location("check_bench_regression",
                                               _GATE)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)

BASELINE = {
    "ocs_lookahead_vs_greedy": {"nodes": 64, "greedy_total_s": 0.0034,
                                "lookahead_total_s": 0.0016,
                                "speedup": 2.125},
    "ocs_delta_decompose": {"speedup": 4.0},
    "serving_warm_throughput": {"jobs": 1000, "capacity": 32,
                                "jct_p99_s": 173.69,
                                "simulated_jobs_per_s": 5.41,
                                "engine_s": 0.84, "reference_s": 2.72,
                                "wall_jobs_per_s": 1196.1,
                                "speedup": 3.25},
}


def _run(tmp_path, current, capsys):
    cur, base = tmp_path / "cur.json", tmp_path / "base.json"
    cur.write_text(json.dumps(current))
    base.write_text(json.dumps(BASELINE))
    code = gate.main(["gate", str(cur), str(base)])
    return code, capsys.readouterr().out


def test_sections_are_split():
    assert set(gate.EXACT_SECTIONS) == {"ocs_lookahead_vs_greedy",
                                        "coplan_vs_best_fixed",
                                        "serving_adaptive_switch"}
    assert not set(gate.EXACT_SECTIONS) & set(gate.GATED_SECTIONS)
    assert not set(gate.EXACT_SECTIONS) & set(gate.EXACT_FIELDS)
    assert len(gate.GATED_SECTIONS) == 11


def test_committed_baselines_carry_every_checked_section_and_field():
    committed = {}
    for path in sorted(_GATE.parent.glob("BENCH_*.json")):
        committed.update(json.loads(path.read_text()))
    for section in gate.GATED_SECTIONS:
        assert "speedup" in committed[section], section
    for section in gate.EXACT_SECTIONS:
        assert section in committed
    for section, fields in gate.EXACT_FIELDS.items():
        assert set(fields) <= set(committed[section]), section


def test_equal_results_pass_as_exact_rows(tmp_path, capsys):
    code, out = _run(tmp_path, BASELINE, capsys)
    assert code == 0
    row = next(line for line in out.splitlines()
               if line.startswith("ocs_lookahead_vs_greedy"))
    assert row.split()[3:] == ["exact", "ok"]


@pytest.mark.parametrize("change", [
    {"lookahead_total_s": 0.0016 * (1 + 2 ** -52)},  # one ulp
    {"speedup": 2.125 * 4},  # a "faster" ratio still differs
    {"extra": 1},
])
def test_any_changed_field_fails(tmp_path, capsys, change):
    current = json.loads(json.dumps(BASELINE))
    current["ocs_lookahead_vs_greedy"].update(change)
    code, out = _run(tmp_path, current, capsys)
    assert code == 1
    assert "CHANGED" in out


@pytest.mark.parametrize("change", [
    {"jct_p99_s": 173.69 * (1 + 2 ** -52)},  # one ulp
    {"jobs": 1001},
])
def test_changed_exact_field_fails(tmp_path, capsys, change):
    current = json.loads(json.dumps(BASELINE))
    current["serving_warm_throughput"].update(change)
    code, out = _run(tmp_path, current, capsys)
    assert code == 1
    assert "CHANGED" in out


def test_changed_timed_field_passes(tmp_path, capsys):
    current = json.loads(json.dumps(BASELINE))
    current["serving_warm_throughput"].update(
        engine_s=0.5, reference_s=2.0, wall_jobs_per_s=2000.0, speedup=4.0)
    code, out = _run(tmp_path, current, capsys)
    assert code == 0
    rows = [line.split() for line in out.splitlines()
            if line.startswith("serving_warm_throughput")]
    assert [r[3:] for r in rows] == [["exact", "ok"], ["1.62x", "ok"]]


def test_exact_fields_keep_the_speedup_floor(tmp_path, capsys):
    current = json.loads(json.dumps(BASELINE))
    current["serving_warm_throughput"]["speedup"] = 1.0
    code, out = _run(tmp_path, current, capsys)
    assert code == 1
    assert "REGRESSED" in out


def test_missing_result_fails(tmp_path, capsys):
    current = {"ocs_delta_decompose": {"speedup": 4.0}}
    code, out = _run(tmp_path, current, capsys)
    assert code == 1
    assert "MISSING" in out


def test_speedups_keep_the_ratio_floor(tmp_path, capsys):
    current = json.loads(json.dumps(BASELINE))
    current["ocs_delta_decompose"]["speedup"] = 2.0  # exactly the floor
    assert _run(tmp_path, current, capsys)[0] == 0
    current["ocs_delta_decompose"]["speedup"] = 1.99
    assert _run(tmp_path, current, capsys)[0] == 1
