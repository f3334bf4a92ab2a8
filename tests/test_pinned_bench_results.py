"""The deterministic bench headlines, pinned exactly.

``coplan_vs_best_fixed`` (``benchmarks/BENCH_coplan.json``) and
``ocs_lookahead_vs_greedy`` (``benchmarks/BENCH_ocs.json``) are ratios
of *simulated* times — pure model quantities, identical on every host.
The benchmark gate only fails them at a 2x drift; these tests rerun
the same configurations and require the committed labels exactly and
the committed times to 1e-12 relative, so any change in what the
co-planner or the lookahead synthesizer picks shows up in tier-1.

The paper grid (Fig. 2 on 4 models x N in {128, 256, 512, 1024} and
the headline reductions) is pinned exactly, float for float, to the
values ``perfbench/expected/paper_fig2.json`` holds for the
``paper_fig2`` benchmark workload; the test only reads that file.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import figure2, headline_reductions
from repro.collectives.recursive_doubling import generate_recursive_doubling
from repro.config import Workload, default_ocs
from repro.core.substrates.reconfigurable import OCSReconfigurableSubstrate
from repro.core.topoplan import strategy_plan_table
from repro.models.strategies import enumerate_strategies

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "benchmarks"


def _committed(filename, section):
    return json.loads((BENCH_DIR / filename).read_text())[section]


def _exact(value):
    return pytest.approx(value, rel=1e-12, abs=0.0)


def test_coplan_vs_best_fixed_matches_committed_baseline():
    pin = _committed("BENCH_coplan.json", "coplan_vs_best_fixed")
    nodes = pin["nodes"]
    table = strategy_plan_table(
        nodes, pin["model"],
        strategies=enumerate_strategies(nodes,
                                        max_tensor=pin["max_tensor"]),
        rack_sizes=(), fidelity="simulate")
    best_fixed = min((p for p in table if p.policy == "static"),
                     key=lambda p: p.predicted_time)
    best = min(table, key=lambda p: p.predicted_time)
    assert best_fixed.label == pin["best_fixed"]
    assert best.label == pin["coplan"]
    assert best_fixed.predicted_time == _exact(pin["best_fixed_total_s"])
    assert best.predicted_time == _exact(pin["coplan_total_s"])


def test_ocs_lookahead_vs_greedy_matches_committed_baseline():
    # The bench's workload: recursive doubling, 1 MiB payload.
    pin = _committed("BENCH_ocs.json", "ocs_lookahead_vs_greedy")
    nodes = pin["nodes"]
    system = default_ocs(nodes).with_(reconfiguration_delay=pin["delay_s"],
                                      ports_per_node=pin["ports"])
    schedule = generate_recursive_doubling(nodes)
    workload = Workload(data_bytes=1 << 20)
    greedy = OCSReconfigurableSubstrate(system).execute(schedule, workload)
    lookahead = OCSReconfigurableSubstrate(
        system, lookahead=True).execute(schedule, workload)
    assert greedy.total_time == _exact(pin["greedy_total_s"])
    assert lookahead.total_time == _exact(pin["lookahead_total_s"])


def test_paper_grid_matches_committed_outputs_exactly():
    pin = json.loads(
        (ROOT / "perfbench" / "expected" / "paper_fig2.json").read_text())
    pin = pin["any"]
    panels = figure2()
    cells = [[model, algo, n, t]
             for model, panel in panels.items()
             for algo in ("e-ring", "rd", "o-ring", "wrht")
             for n, t in zip(panel.scales, panel.times[algo])]
    assert cells == pin["cells"]
    head = headline_reductions(panels)
    assert head.electrical_reduction == pin["headline"]["electrical"]
    assert head.optical_reduction == pin["headline"]["optical"]
    assert (head.electrical_pooled_reduction
            == pin["headline"]["electrical_pooled"])
    assert head.per_baseline == pin["headline"]["per_baseline"]
