"""Experiment report writer.

Regenerates the full paper-vs-measured record (the ``report`` row of
``README.md``'s CLI table) from live runs, so the repository's claims
can be refreshed with one command::

    python -m repro report > results/report.md

Sections: Figure 2 (four panels as markdown tables), the headline
aggregates, and the §2 step-count table.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from .figure2 import (PAPER_MODELS, PAPER_SCALES, Figure2Panel, figure2)
from .headline import HeadlineResult, headline_reductions
from .tables import step_count_table

_ALGO_LABEL = {"e-ring": "E-Ring", "rd": "RD", "o-ring": "O-Ring",
               "wrht": "WRHT"}


def _markdown_table(headers: Sequence[str],
                    rows: Sequence[Sequence]) -> str:
    out = ["| " + " | ".join(str(h) for h in headers) + " |",
           "|" + "|".join("---" for _ in headers) + "|"]
    for r in rows:
        out.append("| " + " | ".join(str(c) for c in r) + " |")
    return "\n".join(out)


def figure2_markdown(panels: Dict[str, Figure2Panel]) -> str:
    """Fig. 2 panels as markdown tables (times in ms)."""
    blocks: List[str] = []
    for model, panel in panels.items():
        headers = ["N"] + [_ALGO_LABEL.get(a, a) for a in panel.times]
        rows = []
        for i, n in enumerate(panel.scales):
            rows.append([n] + [f"{panel.times[a][i] * 1e3:.2f}"
                               for a in panel.times])
        blocks.append(f"### {model}\n\n"
                      + _markdown_table(headers, rows))
    return "\n\n".join(blocks)


def headline_markdown(result: HeadlineResult) -> str:
    """Headline aggregates as a markdown table."""
    rows = [
        ("reduction vs electrical Ring (E-Ring)",
         f"{result.PAPER_ELECTRICAL:.2%}",
         f"{result.electrical_reduction:.2%}"),
        ("reduction vs optical Ring (O-Ring)",
         f"{result.PAPER_OPTICAL:.2%}",
         f"{result.optical_reduction:.2%}"),
        ("reduction vs E-Ring + RD pooled", "—",
         f"{result.electrical_pooled_reduction:.2%}"),
    ]
    return _markdown_table(["aggregate", "paper", "measured"], rows)


def steps_markdown(scales: Sequence[int] = PAPER_SCALES,
                   group_size: int = 3) -> str:
    """§2 step-count table as markdown."""
    rows = step_count_table(scales=scales, group_size=group_size)
    return _markdown_table(
        ["N", "Ring", "RD", "HD", "Tree", f"Wrht(m={group_size})",
         "paper bound"],
        [(r.num_nodes, r.ring, r.recursive_doubling, r.halving_doubling,
          r.binomial_tree, r.wrht, r.wrht_paper_bound) for r in rows])


def full_report(models: Sequence[str] = PAPER_MODELS,
                scales: Sequence[int] = PAPER_SCALES) -> str:
    """The complete regenerated paper-vs-measured report (markdown)."""
    panels = figure2(models=models, scales=scales)
    headline = headline_reductions(panels=panels)
    parts = [
        "# Wrht reproduction — regenerated experiment report",
        "## Figure 2 (normalized communication time, ms)",
        figure2_markdown(panels),
        "## Headline claims",
        headline_markdown(headline),
        "## Step counts (§2)",
        steps_markdown(scales=scales),
    ]
    return "\n\n".join(parts) + "\n"
