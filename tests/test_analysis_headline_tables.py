"""Tests for headline aggregation, tables and sweeps (small scales)."""

import pytest

from repro import units
from repro.analysis.figure2 import figure2
from repro.analysis.headline import headline_reductions, render_headline
from repro.analysis.sweeps import (crossover_sweep, striping_sweep,
                                   wavelength_sweep)
from repro.analysis.tables import (render_step_count_table,
                                   render_wavelength_requirement_table,
                                   step_count_table,
                                   wavelength_requirement_table)
from repro.config import Workload


class TestHeadline:
    def test_headline_from_prebuilt_panels(self):
        panels = figure2(models=("alexnet",), scales=(8, 16))
        result = headline_reductions(panels=panels)
        assert 0 < result.electrical_reduction < 1
        assert 0 < result.optical_reduction < 1
        assert 0 < result.electrical_pooled_reduction < 1
        assert set(result.per_baseline) == {"e-ring", "rd", "o-ring"}
        # 1 model x 2 scales x 3 baselines
        assert len(result.per_point) == 6

    def test_render_mentions_paper_values(self):
        panels = figure2(models=("alexnet",), scales=(8,))
        text = render_headline(headline_reductions(panels=panels))
        assert "75.76%" in text
        assert "91.86%" in text


class TestTables:
    def test_step_count_rows(self):
        rows = step_count_table(scales=(8, 16), group_size=3)
        assert [r.num_nodes for r in rows] == [8, 16]
        for r in rows:
            assert r.ring == 2 * (r.num_nodes - 1)
            assert r.wrht == r.wrht_paper_bound

    def test_step_count_render(self):
        text = render_step_count_table(step_count_table(scales=(8,)))
        assert "Ring 2(N-1)" in text

    def test_wavelength_rows(self):
        rows = wavelength_requirement_table(configs=((16, 3), (27, 5)))
        for r in rows:
            assert r.tree_demand_generated == r.tree_requirement
            assert r.peak_demand_generated >= 1

    def test_wavelength_render(self):
        text = render_wavelength_requirement_table(
            wavelength_requirement_table(configs=((16, 3),)))
        assert "m*" in text


class TestSweeps:
    def test_wavelength_sweep_monotone(self):
        wl = Workload(data_bytes=10 * units.MB)
        rows = wavelength_sweep(16, wl, budgets=(2, 8, 32))
        times = [r.wrht_time for r in rows]
        assert times == sorted(times, reverse=True)
        assert len({round(r.oring_time, 12) for r in rows}) == 1

    def test_crossover_winner_changes_with_size(self):
        rows = crossover_sweep(16, [1 * units.KB, 100 * units.MB])
        assert rows[0].winner() in ("rd", "wrht")
        assert rows[-1].winner() == "wrht"

    def test_crossover_winner_tie_breaks_alphabetically(self):
        from repro.analysis.sweeps import CrossoverRow
        tie = {"wrht": 1.0, "e-ring": 1.0, "rd": 2.0}
        # Insertion order must not matter — only the name ordering.
        assert CrossoverRow(1.0, tie).winner() == "e-ring"
        reordered = {"rd": 2.0, "e-ring": 1.0, "wrht": 1.0}
        assert CrossoverRow(1.0, reordered).winner() == "e-ring"

    def test_substrate_sweep_covers_registry(self):
        from repro.analysis.sweeps import substrate_sweep
        from repro.core.substrates import available_substrates
        rows = substrate_sweep(8, Workload(data_bytes=1 * units.MB))
        assert [r.substrate for r in rows] == list(available_substrates())
        assert all(r.time > 0 for r in rows)

    def test_substrate_sweep_reports_infeasible_rows(self):
        from repro.analysis.sweeps import substrate_sweep
        rows = substrate_sweep(13, Workload(data_bytes=1 * units.MB),
                               substrates=("optical-torus",))
        assert len(rows) == 1
        assert rows[0].time != rows[0].time  # NaN marks "not runnable"
        assert "composite" in rows[0].note

    def test_bandwidth_sweep_shares_compiled_structures(self):
        from repro.analysis.sweeps import bandwidth_sweep
        from repro.core.substrates import clear_substrate_pool

        clear_substrate_pool()
        rows = bandwidth_sweep(8, Workload(data_bytes=1 * units.MB),
                               link_rates=(1e9, 2e9, 4e9))
        assert len(rows) == 3
        # More bandwidth, faster all-reduce.
        times = [r.time for r in rows]
        assert times == sorted(times, reverse=True)
        # Compilation happened only in the first cell; later cells
        # rebind capacities onto the shared structures (the cumulative
        # miss counter stops growing, the hit counter keeps climbing).
        assert rows[0].compile_misses > 0
        assert rows[1].compile_misses == rows[0].compile_misses
        assert rows[2].compile_misses == rows[0].compile_misses
        assert rows[2].compile_hits > rows[0].compile_hits

    def test_bandwidth_sweep_rejects_bad_topology(self):
        from repro.analysis.sweeps import bandwidth_sweep
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            bandwidth_sweep(8, Workload(data_bytes=1.0), topology="mesh")

    def test_serving_load_sweep_shapes_with_load(self):
        from repro.analysis.sweeps import serving_load_sweep

        rows = serving_load_sweep(capacity=16, num_jobs=12,
                                  arrival_rates=(2.0, 200.0), seed=5)
        assert [r.arrival_rate for r in rows] == [2.0, 200.0]
        assert all(r.jobs == 12 for r in rows)
        light, heavy = rows
        # Compressing the same mix into a shorter window can only grow
        # queueing and tail latency.
        assert heavy.max_queue_depth >= light.max_queue_depth
        assert heavy.jct_p99 >= light.jct_p99
        assert all(r.jct_p50 <= r.jct_p99 for r in rows)
        assert all(sum(r.algorithm_mix.values()) > 0 for r in rows)

    def test_serving_load_sweep_deterministic(self):
        from repro.analysis.sweeps import serving_load_sweep

        a = serving_load_sweep(capacity=16, num_jobs=8,
                               arrival_rates=(20.0,), seed=3)
        b = serving_load_sweep(capacity=16, num_jobs=8,
                               arrival_rates=(20.0,), seed=3)
        assert a == b

    def test_striping_rows_labelled(self):
        rows = striping_sweep(16, Workload(data_bytes=10 * units.MB),
                              num_wavelengths=8)
        labels = {r.label for r in rows}
        assert "wrht+striping" in labels
        assert "wrht-no-striping" in labels
        assert any("o-ring" in l for l in labels)
        t = {r.label: r.time for r in rows}
        assert t["wrht+striping"] <= t["wrht-no-striping"]


class TestAsciiPlot:
    def test_grouped_bar_chart_renders_all_series(self):
        from repro.analysis.ascii_plot import grouped_bar_chart
        text = grouped_bar_chart(["a", "b"], {"x": [1.0, 2.0],
                                              "y": [2.0, 4.0]},
                                 title="t")
        assert text.startswith("t")
        assert text.count("x") >= 2 and text.count("y") >= 2

    def test_grouped_bar_chart_empty(self):
        from repro.analysis.ascii_plot import grouped_bar_chart
        assert grouped_bar_chart([], {}, title="t") == "t"

    def test_line_chart(self):
        from repro.analysis.ascii_plot import line_chart
        text = line_chart([1, 2, 3], {"s": [1.0, 10.0, 100.0]},
                          logy=True, title="log sweep")
        assert "log sweep" in text
        assert "o=s" in text

    def test_simple_table_alignment(self):
        from repro.analysis.ascii_plot import simple_table
        text = simple_table(["col", "x"], [(1, "ab"), (22, "c")])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("col")
