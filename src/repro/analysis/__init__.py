"""Experiment harness: Fig. 2, headline claims, tables and ablation sweeps.

Every figure, table and sweep that ``README.md`` describes maps to one
function here; the ``benchmarks/`` tree and the CLI are thin wrappers.
"""

from .._lazy import lazy_exports
from .ascii_plot import grouped_bar_chart, line_chart
from .figure2 import (PAPER_MODELS, PAPER_SCALES, Figure2Panel,
                      figure2, figure2_panel, panels_to_csv, render_panel)
from .headline import HeadlineResult, headline_reductions, render_headline

# Fig. 2 and the headline are what callers import this package for, so
# they load with it and their first call imports nothing; the sweeps,
# tables, report and timeline load on first use.
_lazy_names, __getattr__, __dir__ = lazy_exports(__name__, globals(), {
    ".sweeps": ("wavelength_sweep", "crossover_sweep", "serving_load_sweep",
                "fault_sweep", "striping_sweep", "pipelining_sweep"),
    ".report": ("full_report",),
    ".timeline": ("render_timeline", "compare_timelines", "report_to_dict",
                  "report_to_json"),
    ".tables": ("step_count_table", "render_step_count_table",
                "wavelength_requirement_table",
                "render_wavelength_requirement_table"),
})

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
    "grouped_bar_chart",
    "line_chart",
] + _lazy_names
