"""Self-tests of the benchmark harness on tiny inputs (seconds, not the
full workloads — those only run through ``run.py``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import layers
import tracer
import worker
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(name: str, trace: bool) -> dict:
    wl = workloads.get(name, tiny=True)
    rep = worker.run_once(wl, wl.prepare(0), 0, trace=trace)
    assert "error" not in rep, rep.get("error")
    assert rep["invariants"] == []
    return rep


@pytest.fixture(scope="module")
def tiny_runs():
    """Untraced and traced tiny runs of every workload."""
    return {name: (_run(name, False), _run(name, True))
            for name in layers.WORKLOADS}


@pytest.mark.parametrize("span", layers.SPANS, ids=lambda s: s.name)
def test_span_fires_where_layer_works_and_stays_zero_where_bypassed(
        tiny_runs, span):
    for name in span.works:
        calls = tiny_runs[name][1]["layers"]["metrics"][f"{span.name}.calls"]
        assert calls > 0, f"{span.name} never fired on {name}"
    for name in span.zero:
        calls = tiny_runs[name][1]["layers"]["metrics"][f"{span.name}.calls"]
        assert calls == 0, f"{span.name} fired {calls} times on {name}"


@pytest.mark.parametrize("name", layers.WORKLOADS)
def test_traced_run_has_the_untraced_digest(tiny_runs, name):
    untraced, traced = tiny_runs[name]
    assert traced["digest"] == untraced["digest"]
    assert traced["sim"] == untraced["sim"]


def test_tracer_restores_every_wrapped_name(tiny_runs):
    for span in layers.SPANS:
        for target in span.targets:
            owner, attr, obj = tracer._resolve(target)
            assert tracer.original(obj) is None, target
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for value in vars(module).values():
                assert tracer.original(value) is None
                if isinstance(value, dict):
                    assert not any(tracer.original(v) for v in value.values())


def test_self_time_excludes_child_spans():
    t = tracer.Tracer()
    t.spans = [["engine.run", -1, 0.0, 10.0, None],
               ["scheduler.admit", 0, 1.0, 4.0, 7],
               ["contention.slowdowns", 0, 5.0, 6.0, None],
               ["fluid.step_profile", 2, 5.2, 5.7, None]]
    calls, self_s = t.layer_totals()
    assert calls["engine.run"] == 1 and calls["scheduler.submit"] == 0
    assert self_s["engine.run"] == pytest.approx(6.0)
    assert self_s["contention.slowdowns"] == pytest.approx(0.5)
    assert t.depth_curve("scheduler.admit")[0]["calls"] == 1


def test_benchmark_json_names_every_metric_the_runner_reports(tiny_runs):
    assert [w["name"] for w in SPEC["workloads"]] == list(layers.WORKLOADS)
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == set(layers.per_layer_info())
    for untraced, traced in tiny_runs.values():
        reported = set(traced["layers"]["metrics"]) | set(traced["sim"])
        assert reported <= declared
    e2e = [m["name"] for m in SPEC["end_to_end"]]
    assert "setup_s" in e2e and "wall_s" in e2e
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s")


def test_differences_reports_exact_float_changes():
    want = {"cells": [["alexnet", "wrht", 128, 0.1]], "n": 3}
    got = {"cells": [["alexnet", "wrht", 128, 0.1 + 1e-17 * 8]], "n": 3}
    assert worker.differences(want, want) == []
    assert worker.differences(want, got) == [
        f".cells[0][3]: expected 0.1, got {0.1 + 1e-17 * 8!r}"]


def test_runner_fails_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_fig2",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_list_prints_every_metric():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--list"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    for name in names:
        assert f" {name} " in proc.stdout
