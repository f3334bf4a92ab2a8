"""Tests for timeline rendering, JSON export and the report writer."""

import json

import pytest

from repro import units
from repro.analysis.report import (figure2_markdown, full_report,
                                   headline_markdown, steps_markdown)
from repro.analysis.figure2 import figure2
from repro.analysis.headline import headline_reductions
from repro.analysis.timeline import (compare_timelines, render_timeline,
                                     report_to_dict, report_to_json)
from repro.collectives import WrhtParameters, generate_ring_allreduce, \
    generate_wrht
from repro.config import OpticalRingSystem, Workload
from repro.core.substrates import ExecutionReport, OpticalRingSubstrate

WL = Workload(data_bytes=5 * units.MB)


def wrht_report(n=16, w=8):
    system = OpticalRingSystem(num_nodes=n, num_wavelengths=w)
    sched, _ = generate_wrht(WrhtParameters(
        num_nodes=n, group_size=3, num_wavelengths=w,
        alltoall_threshold=3))
    return OpticalRingSubstrate(system).execute(sched, WL)


class TestTimeline:
    def test_render_contains_every_step(self):
        rep = wrht_report()
        text = render_timeline(rep)
        for s in rep.steps:
            assert f"step {s.index:>3}" in text
        assert "serialization" in text

    def test_render_empty_report(self):
        rep = ExecutionReport(schedule_name="x", substrate="none")
        assert "empty schedule" in render_timeline(rep)

    def test_dict_roundtrip(self):
        rep = wrht_report()
        d = report_to_dict(rep)
        assert d["num_steps"] == rep.num_steps
        assert d["total_time_s"] == pytest.approx(rep.total_time)
        assert len(d["steps"]) == rep.num_steps
        assert d["steps"][0]["striping"] >= 1

    def test_json_parses(self):
        rep = wrht_report()
        parsed = json.loads(report_to_json(rep))
        assert parsed["schedule"] == rep.schedule_name
        assert parsed["peak_wavelength_demand"] <= 8

    def test_compare_timelines_sorted(self):
        system = OpticalRingSystem(num_nodes=8, num_wavelengths=8)
        fast = wrht_report(8, 8)
        slow = OpticalRingSubstrate(system, striping="off").execute(
            generate_ring_allreduce(8), WL)
        text = compare_timelines([slow, fast])
        lines = text.splitlines()
        assert len(lines) == 2
        assert "1.00x" in lines[0]  # fastest first

    def test_compare_timelines_empty(self):
        assert compare_timelines([]) == "(no reports)"


class TestReportWriter:
    def test_figure2_markdown_shape(self):
        panels = figure2(models=("googlenet",), scales=(8, 16))
        md = figure2_markdown(panels)
        assert "### googlenet" in md
        assert "| N | E-Ring | RD | O-Ring | WRHT |" in md
        assert md.count("| 8 |") == 1 and md.count("| 16 |") == 1

    def test_headline_markdown_mentions_paper(self):
        panels = figure2(models=("googlenet",), scales=(8,))
        md = headline_markdown(headline_reductions(panels=panels))
        assert "75.76%" in md and "91.86%" in md

    def test_steps_markdown(self):
        md = steps_markdown(scales=(8, 16))
        assert "| 8 |" in md and "| 16 |" in md
        assert "paper bound" in md

    def test_full_report_small(self):
        md = full_report(models=("googlenet",), scales=(8,))
        assert md.startswith("# Wrht reproduction")
        assert "## Figure 2" in md
        assert "## Headline claims" in md
        assert "## Step counts" in md


class TestCliReport:
    def test_report_command(self, capsys):
        from repro.cli import main
        rc = main(["report", "--scales", "8"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# Wrht reproduction" in out
