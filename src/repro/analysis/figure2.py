"""Figure 2: communication time of the four algorithms across scales.

The paper's only data figure — four panels (AlexNet, VGG16, ResNet50,
GoogLeNet), each showing "normalized time" (milliseconds here) of
E-Ring, RD, O-Ring and Wrht at N ∈ {128, 256, 512, 1024}.

:func:`figure2` regenerates every panel; :func:`render_panel` draws the
grouped bars; :func:`panels_to_csv` emits the raw series.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..config import ElectricalSystem, OpticalRingSystem, Workload, \
    default_electrical, default_optical
from ..core.comparison import ALGORITHMS, ComparisonResult, \
    compare_algorithms
from ..models.catalog import PAPER_MODELS, PAPER_PARAM_COUNTS, \
    paper_workload
from .ascii_plot import grouped_bar_chart

#: The paper's cluster scales (x axis of every panel).
PAPER_SCALES: Tuple[int, ...] = (128, 256, 512, 1024)


@dataclass
class Figure2Panel:
    """One panel: per-algorithm times (seconds) across scales."""

    model: str
    scales: Tuple[int, ...]
    times: Dict[str, List[float]] = field(default_factory=dict)
    comparisons: List[ComparisonResult] = field(default_factory=list)

    def normalized(self, unit: float = 1e-3) -> Dict[str, List[float]]:
        """Times in ``unit`` (default: ms — the figure's y values)."""
        return {a: [t / unit for t in ts] for a, ts in self.times.items()}

    def winner_at(self, scale: int) -> str:
        """Fastest algorithm at ``scale``."""
        i = self.scales.index(scale)
        return min(self.times, key=lambda a: self.times[a][i])


def figure2_panel(
    model: str,
    scales: Sequence[int] = PAPER_SCALES,
    algorithms: Sequence[str] = ALGORITHMS,
    optical_factory: Callable[[int], OpticalRingSystem] = default_optical,
    electrical_factory: Callable[[int], ElectricalSystem] =
        default_electrical,
    fidelity: str = "analytic",
    workload: Optional[Workload] = None,
) -> Figure2Panel:
    """Compute one Fig. 2 panel for ``model``."""
    wl = workload if workload is not None else paper_workload(model)
    panel = Figure2Panel(model=model, scales=tuple(scales),
                         times={a: [] for a in algorithms})
    for n in scales:
        comp = compare_algorithms(
            n, wl, optical=optical_factory(n),
            electrical=electrical_factory(n), algorithms=algorithms,
            fidelity=fidelity)
        panel.comparisons.append(comp)
        for a in algorithms:
            panel.times[a].append(comp.time(a))
    return panel


def figure2(models: Sequence[str] = PAPER_MODELS,
            scales: Sequence[int] = PAPER_SCALES,
            fidelity: str = "analytic",
            **kwargs) -> Dict[str, Figure2Panel]:
    """All four panels of Fig. 2 (keyed by model name)."""
    return {m: figure2_panel(m, scales=scales, fidelity=fidelity, **kwargs)
            for m in models}


def render_panel(panel: Figure2Panel) -> str:
    """Grouped-bar rendering of one panel (y in ms, like the paper)."""
    series = panel.normalized()
    label = {"e-ring": "E-Ring", "rd": "RD", "o-ring": "O-Ring",
             "wrht": "WRHT"}
    named = {label.get(a, a): v for a, v in series.items()}
    params = PAPER_PARAM_COUNTS.get(panel.model)
    suffix = f" ({params / 1e6:.4g}M parameters)" if params else ""
    return grouped_bar_chart(
        categories=[f"N={n}" for n in panel.scales], series=named,
        title=f"Figure 2 — {panel.model}{suffix}: normalized "
              f"communication time [ms]")


def panels_to_csv(panels: Dict[str, Figure2Panel]) -> str:
    """CSV of every (model, algorithm, scale) time in milliseconds."""
    lines = ["model,algorithm,num_nodes,time_ms"]
    for model, panel in panels.items():
        for algo, times in panel.times.items():
            for n, t in zip(panel.scales, times):
                lines.append(f"{model},{algo},{n},{t * 1e3:.6f}")
    return "\n".join(lines)
