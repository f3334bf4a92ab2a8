"""Tests for the command-line interface."""

import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.cli import build_parser, main
from repro.core.substrates import available_substrates

SRC = str(Path(repro.__file__).resolve().parent.parent)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_args(self):
        args = build_parser().parse_args(
            ["fig2", "--model", "vgg16", "--scales", "8", "16", "--csv"])
        assert args.model == "vgg16"
        assert args.scales == [8, 16]
        assert args.csv

    def test_sweep_kinds(self):
        for kind in ("wavelengths", "payload", "striping", "hier-groups",
                     "bandwidth"):
            args = build_parser().parse_args(["sweep", kind])
            assert args.kind == kind

    def test_bad_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--model", "bert"])


class TestCommands:
    def test_fig2_csv_small(self, capsys):
        rc = main(["fig2", "--model", "googlenet", "--scales", "8", "16",
                   "--csv"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("model,algorithm,num_nodes,time_ms")
        assert "googlenet,wrht,16," in out

    def test_fig2_chart_small(self, capsys):
        rc = main(["fig2", "--model", "googlenet", "--scales", "8"])
        assert rc == 0
        assert "WRHT" in capsys.readouterr().out

    def test_tables(self, capsys):
        rc = main(["tables", "--m", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Communication steps per algorithm" in out
        assert "Wavelength requirements" in out

    def test_plan(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "group size m" in out
        assert "predicted time" in out

    def test_plan_show_schedule(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8",
                   "--show-schedule"])
        assert rc == 0
        assert "step " in capsys.readouterr().out

    def test_sweep_striping(self, capsys):
        rc = main(["sweep", "striping", "--nodes", "16",
                   "--bytes", "1000000"])
        assert rc == 0
        assert "EXT-A3" in capsys.readouterr().out

    def test_sweep_payload(self, capsys):
        rc = main(["sweep", "payload", "--nodes", "8"])
        assert rc == 0
        assert "winner" in capsys.readouterr().out

    def test_sweep_substrates_lists_every_registered_fabric(self, capsys):
        from repro.core.substrates import available_substrates

        rc = main(["sweep", "substrates", "--nodes", "8",
                   "--bytes", "1000000"])
        assert rc == 0
        out = capsys.readouterr().out
        for name in available_substrates():
            assert name in out
        assert "ocs-reconfig" in out

    def test_sweep_hier_groups(self, capsys):
        rc = main(["sweep", "hier-groups", "--nodes", "16",
                   "--bytes", "1000000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EXT-H1" in out
        # every divisor of 16 appears as a rack-size row
        for g in (1, 2, 4, 8, 16):
            assert f"\n{g} " in out or out.startswith(f"{g} ")

    def test_plan_substrate_hier_rack(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8",
                   "--substrate", "hier-rack"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated on hier-rack" in out
        # The consolidated cache table folds every cache kind the
        # substrate reports into one row each.
        assert "cache statistics" in out
        assert "\nrwa " in out and "\nfluid " in out
        assert "misses" in out

    def test_plan_substrate_prints_cache_statistics(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8",
                   "--substrate", "optical-ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated on optical-ring" in out
        assert "cache statistics" in out and "\nrwa " in out

    def test_plan_substrate_ocs_reconfig(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8",
                   "--substrate", "ocs-reconfig"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulated on ocs-reconfig" in out
        assert "\nstep " in out and "\nfluid " in out

    def test_plan_substrate_fluid_cache_statistics(self, capsys):
        rc = main(["plan", "--nodes", "16", "--wavelengths", "8",
                   "--substrate", "electrical-ring"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "\nfluid " in out and "\ncompile " in out
        assert "hits" in out and "misses" in out

    def test_sweep_substrates_prints_consolidated_cache_table(self, capsys):
        rc = main(["sweep", "substrates", "--nodes", "8",
                   "--bytes", "1000000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cache statistics (all substrates)" in out
        # Every cache kind the built-in fabrics report, one row each.
        for kind in ("rwa", "step", "fluid", "compile"):
            assert f"\n{kind} " in out

    def test_sweep_bandwidth(self, capsys):
        rc = main(["sweep", "bandwidth", "--nodes", "8",
                   "--bytes", "1000000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "EXT-A9" in out
        assert "compiles" in out and "rebinds" in out
        assert "cache statistics (all substrates)" in out

    def test_serve_smoke(self, capsys):
        rc = main(["serve", "--jobs", "8", "--capacity", "16",
                   "--rate", "50", "--seed", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jobs served" in out
        assert "JCT p99" in out
        assert "algorithm mix" in out
        assert "shared-substrate cache statistics" in out

    def test_serve_show_jobs_and_policy(self, capsys):
        rc = main(["serve", "--jobs", "6", "--capacity", "16",
                   "--rate", "50", "--policy", "sjf",
                   "--placement", "scatter", "--collective", "ring",
                   "--show-jobs"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-job records" in out
        assert "sjf" in out and "scatter" in out


class TestErrorBoundary:
    @pytest.mark.parametrize("argv", [
        ["plan", "--nodes", "1"],
        ["plan", "--nodes", "16", "--wavelengths", "0"],
        ["fig2", "--model", "alexnet", "--scales", "1"],
        ["serve", "--capacity", "1"],
        ["serve", "--strategy", "dp2"],
        ["serve", "--model", "alexnet", "--strategy", "dp64",
         "--capacity", "4"],
        ["plan", "--nodes", "16", "--strategy", "bogus"],
        ["plan", "--nodes", "13", "--wavelengths", "8",
         "--substrate", "optical-torus"],
        ["plan", "--nodes", "16", "--bytes", "inf"],
        ["plan", "--nodes", "16", "--bytes", "inf",
         "--substrate", "ocs-reconfig"],
        ["sweep", "substrates", "--nodes", "8", "--bytes", "inf"],
    ])
    def test_library_error_is_one_line_exit_2(self, argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: ")
        assert "Traceback" not in proc.stderr


#: ``--bytes`` values: the rejected ones, then any valid payload.
PLAN_BYTES = st.sampled_from([0.0, -1.0, -1e6, math.nan, math.inf]) \
    | st.floats(min_value=1.0, max_value=1e9)


@settings(max_examples=200, deadline=None)
@given(nodes=st.integers(min_value=-2, max_value=64),
       wavelengths=st.integers(min_value=-1, max_value=70),
       nbytes=PLAN_BYTES,
       substrate=st.none() | st.sampled_from(available_substrates()))
def test_plan_runs_or_prints_one_error_line(nodes, wavelengths, nbytes,
                                            substrate):
    """``plan`` either succeeds, or prints nothing to stdout and one
    ``repro plan:`` line to stderr and returns 2."""
    argv = ["plan", "--nodes", str(nodes), "--wavelengths",
            str(wavelengths), "--bytes", repr(nbytes)]
    if substrate is not None:
        argv += ["--substrate", substrate]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    if rc == 0:
        return
    assert rc == 2, argv
    assert out.getvalue() == "", argv
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("repro plan: "), argv
