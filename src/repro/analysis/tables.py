"""Step-count and wavelength-requirement tables (paper §2 formulas).

The poster has no numbered tables, but §2 makes quantitative claims that
deserve their own artifacts:

* total steps = ``2⌈log_m N⌉`` or ``2⌈log_m N⌉ − 1``;
* tree-step wavelength requirement = ``⌊m/2⌋``;
* last-step survivors ``m* = ⌈N/m^{⌈log_m N⌉−1}⌉`` needing ``⌈m*²/8⌉``
  wavelengths for the all-to-all.

Each table cross-checks the closed form against the *generated*
schedule, so the rendered artifact is simultaneously a regression test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from ..collectives.alltoall_wdm import alltoall_wavelength_requirement
from ..collectives.binomial_tree import binomial_tree_step_count
from ..collectives.halving_doubling import halving_doubling_step_count
from ..collectives.recursive_doubling import recursive_doubling_step_count
from ..collectives.ring_allreduce import ring_step_count
from ..collectives.wrht import (WrhtParameters, generate_wrht,
                                wrht_last_level_survivors,
                                wrht_theoretical_steps)
from ..topology.ring import RingTopology
from ..collectives.analysis import peak_wavelength_demand
from .ascii_plot import simple_table


@dataclass(frozen=True)
class StepCountRow:
    """Step counts of every algorithm at one scale."""

    num_nodes: int
    ring: int
    recursive_doubling: int
    halving_doubling: int
    binomial_tree: int
    wrht: int
    wrht_paper_bound: int


def step_count_table(scales: Sequence[int] = (128, 256, 512, 1024),
                     group_size: int = 3,
                     num_wavelengths: int = 64) -> List[StepCountRow]:
    """Steps per algorithm per scale; Wrht generated + paper bound."""
    rows = []
    for n in scales:
        sched, _ = generate_wrht(WrhtParameters(
            num_nodes=n, group_size=group_size,
            num_wavelengths=num_wavelengths,
            alltoall_threshold=group_size))
        rows.append(StepCountRow(
            num_nodes=n,
            ring=ring_step_count(n),
            recursive_doubling=recursive_doubling_step_count(n),
            halving_doubling=halving_doubling_step_count(n),
            binomial_tree=binomial_tree_step_count(n),
            wrht=sched.num_steps,
            wrht_paper_bound=wrht_theoretical_steps(
                n, group_size, num_wavelengths,
                alltoall_threshold=group_size)))
    return rows


def render_step_count_table(rows: List[StepCountRow],
                            group_size: int = 3) -> str:
    """Monospace rendering of :func:`step_count_table`."""
    return simple_table(
        ["N", "Ring 2(N-1)", "RD", "HD", "Tree", f"Wrht(m={group_size})",
         "paper 2⌈log_m N⌉-1"],
        [(r.num_nodes, r.ring, r.recursive_doubling, r.halving_doubling,
          r.binomial_tree, r.wrht, r.wrht_paper_bound) for r in rows],
        title="Communication steps per algorithm")


@dataclass(frozen=True)
class WavelengthRow:
    """Wavelength accounting for one (N, m) configuration."""

    num_nodes: int
    group_size: int
    tree_requirement: int        # ⌊m/2⌋ (paper)
    tree_demand_generated: int   # measured on the generated schedule
    survivors: int               # m*
    alltoall_requirement: int    # ⌈m*²/8⌉ (paper)
    peak_demand_generated: int   # worst step of the full schedule


def wavelength_requirement_table(
        configs: Sequence[Tuple[int, int]] = ((128, 3), (128, 9), (256, 5),
                                              (512, 3), (1024, 3),
                                              (1024, 17)),
        num_wavelengths: int = 64) -> List[WavelengthRow]:
    """Paper formulas vs demand measured on generated schedules."""
    rows = []
    for n, m in configs:
        params = WrhtParameters(num_nodes=n, group_size=m,
                                num_wavelengths=num_wavelengths,
                                alltoall_threshold=m)
        sched, info = generate_wrht(params)
        ring = RingTopology(n, capacity=1.0, bidirectional=True)
        from ..collectives.analysis import schedule_wavelength_demand
        demands = schedule_wavelength_demand(ring, sched)
        tree_demand = max(
            (d for i, d in enumerate(demands)
             if i < info.num_tree_levels), default=0)
        survivors = wrht_last_level_survivors(n, m)
        rows.append(WavelengthRow(
            num_nodes=n, group_size=m,
            tree_requirement=m // 2,
            tree_demand_generated=tree_demand,
            survivors=survivors,
            alltoall_requirement=alltoall_wavelength_requirement(survivors),
            peak_demand_generated=peak_wavelength_demand(ring, sched)))
    return rows


def render_wavelength_requirement_table(rows: List[WavelengthRow]) -> str:
    """Monospace rendering of :func:`wavelength_requirement_table`."""
    return simple_table(
        ["N", "m", "⌊m/2⌋", "tree demand", "m*", "⌈m*²/8⌉",
         "peak demand"],
        [(r.num_nodes, r.group_size, r.tree_requirement,
          r.tree_demand_generated, r.survivors, r.alltoall_requirement,
          r.peak_demand_generated) for r in rows],
        title="Wavelength requirements: paper formula vs generated schedule")
