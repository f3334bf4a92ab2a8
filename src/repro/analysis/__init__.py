"""Experiment harness: Fig. 2, headline claims, tables and ablation sweeps.

Every figure, table and sweep that ``README.md`` describes maps to one
function here; the ``benchmarks/`` tree and the CLI are thin wrappers.
"""

from .ascii_plot import grouped_bar_chart, line_chart
from .figure2 import (PAPER_MODELS, PAPER_SCALES, Figure2Panel,
                      figure2, figure2_panel, panels_to_csv, render_panel)
from .headline import HeadlineResult, headline_reductions, render_headline
from .report import full_report
from .sweeps import (crossover_sweep, fault_sweep, pipelining_sweep,
                     serving_load_sweep, striping_sweep, wavelength_sweep)
from .tables import (step_count_table, render_step_count_table,
                     wavelength_requirement_table,
                     render_wavelength_requirement_table)
from .timeline import (compare_timelines, render_timeline, report_to_dict,
                       report_to_json)

__all__ = [
    "PAPER_MODELS",
    "PAPER_SCALES",
    "Figure2Panel",
    "figure2",
    "figure2_panel",
    "render_panel",
    "panels_to_csv",
    "HeadlineResult",
    "headline_reductions",
    "render_headline",
    "wavelength_sweep",
    "crossover_sweep",
    "serving_load_sweep",
    "fault_sweep",
    "striping_sweep",
    "pipelining_sweep",
    "full_report",
    "render_timeline",
    "compare_timelines",
    "report_to_dict",
    "report_to_json",
    "step_count_table",
    "render_step_count_table",
    "wavelength_requirement_table",
    "render_wavelength_requirement_table",
    "grouped_bar_chart",
    "line_chart",
]
