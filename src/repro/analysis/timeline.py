"""Execution timelines: Gantt rendering and JSON export.

Turns an :class:`~repro.core.substrates.base.ExecutionReport` into artifacts a
user can inspect or feed to tooling:

* :func:`render_timeline` — per-step Gantt bars with the time
  decomposition (tuning / overhead / serialization / propagation);
* :func:`report_to_dict` / :func:`report_to_json` — lossless structured
  export of the report.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .. import units
from ..core.substrates.base import ExecutionReport

_GANTT_WIDTH = 50


def render_timeline(report: ExecutionReport, width: int = _GANTT_WIDTH,
                    ) -> str:
    """ASCII Gantt chart of a report's steps.

    Each row is one synchronous step; bar length is proportional to the
    step duration, annotated with the dominant component.
    """
    if not report.steps:
        return f"{report.schedule_name}: empty schedule (0 steps)"
    total = report.total_time
    lines = [f"{report.schedule_name} on {report.substrate}: "
             f"{units.fmt_time(total)} over {report.num_steps} steps"]
    start = 0.0
    for step in report.steps:
        frac_start = start / total if total else 0.0
        frac_len = step.duration / total if total else 0.0
        pad = int(frac_start * width)
        bar = max(1, int(round(frac_len * width)))
        components = {
            "tune": step.tuning_time,
            "sync": step.overhead_time,
            "ser": step.serialization_time,
            "prop": step.propagation_time,
        }
        dominant = max(components, key=components.get)
        lines.append(
            f"  step {step.index:>3} "
            f"|{' ' * pad}{'#' * bar}{' ' * max(width - pad - bar, 0)}| "
            f"{units.fmt_time(step.duration):>12} ({dominant}-bound"
            + (f", x{step.striping} stripes" if step.striping > 1 else "")
            + ")")
        start += step.duration
    ser = report.total_serialization
    lines.append(f"  serialization {units.fmt_time(ser)} "
                 f"({ser / total:.0%}), overheads "
                 f"{units.fmt_time(report.total_overhead)} "
                 f"({report.total_overhead / total:.0%})")
    return "\n".join(lines)


def report_to_dict(report: ExecutionReport) -> Dict:
    """Structured (JSON-ready) form of an execution report."""
    return {
        "schedule": report.schedule_name,
        "substrate": report.substrate,
        "total_time_s": report.total_time,
        "num_steps": report.num_steps,
        "total_serialization_s": report.total_serialization,
        "total_overhead_s": report.total_overhead,
        "peak_wavelength_demand": report.peak_wavelength_demand(),
        "steps": [
            {
                "index": s.index,
                "duration_s": s.duration,
                "serialization_s": s.serialization_time,
                "propagation_s": s.propagation_time,
                "tuning_s": s.tuning_time,
                "overhead_s": s.overhead_time,
                "num_transfers": s.num_transfers,
                "striping": s.striping,
                "wavelength_demand": s.wavelength_demand,
                "spectrum_span": s.spectrum_span,
            }
            for s in report.steps
        ],
    }


def report_to_json(report: ExecutionReport, indent: int = 2) -> str:
    """JSON export of an execution report."""
    return json.dumps(report_to_dict(report), indent=indent)


def compare_timelines(reports: List[ExecutionReport]) -> str:
    """Side-by-side totals of several reports (for examples/CLI)."""
    if not reports:
        return "(no reports)"
    labels = [f"{r.schedule_name} [{r.substrate}]" for r in reports]
    name_w = max(len(l) for l in labels)
    fastest = min(r.total_time for r in reports)
    lines = []
    for label, r in sorted(zip(labels, reports),
                           key=lambda lr: lr[1].total_time):
        ratio = r.total_time / fastest if fastest else 1.0
        lines.append(f"{label:<{name_w}}  "
                     f"{units.fmt_time(r.total_time):>12}  "
                     f"{r.num_steps:>5} steps  {ratio:>6.2f}x")
    return "\n".join(lines)
