"""Unit tests for the experiment harness plumbing (report, runners)."""

import pytest

from repro.experiments import (
    Table,
    bar_chart,
    kernel_overhead,
    run_accuracy_sweep,
    run_suite_overheads,
    samples_needed,
)
from repro.workloads import SPEC_CPU2006_KERNELS


class TestTable:
    def _table(self):
        t = Table("demo", ["name", "value"])
        t.add_row("alpha", 1.5)
        t.add_row("beta", 20)
        return t

    def test_render_aligns_and_titles(self):
        text = self._table().render()
        assert text.startswith("== demo ==")
        assert "alpha" in text and "1.50" in text

    def test_row_width_checked(self):
        with pytest.raises(ValueError):
            self._table().add_row("too", 1, 2)

    def test_column(self):
        assert self._table().column("value") == [1.5, 20]

    def test_note_rendered(self):
        t = Table("x", ["a"], note="hello")
        t.add_row(1)
        assert "(hello)" in t.render()


class TestBarChart:
    def test_bars_scale_to_peak(self):
        chart = bar_chart("t", ["a", "b"], [1.0, 2.0], width=10)
        lines = chart.splitlines()
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10

    def test_reference_line(self):
        chart = bar_chart("t", ["a"], [1.0], reference=4.2)
        assert "4.20" in chart

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bar_chart("t", ["a"], [1.0, 2.0])


class TestAccuracyExperiment:
    def test_sweep_produces_monotone_bound(self):
        table = run_accuracy_sweep(ks=(2, 4, 8), n=500, trials=50)
        bounds = table.column("lower bound")
        assert bounds == sorted(bounds)

    def test_samples_needed_is_about_ten(self):
        assert 5 <= samples_needed(0.99) <= 12


class TestOverheadExperiment:
    def test_single_kernel_overhead_positive(self):
        assert kernel_overhead(SPEC_CPU2006_KERNELS[0]) > 0

    def test_suite_limit_and_average(self):
        result = run_suite_overheads("spec", limit=2)
        assert len(result.rows) == 2
        values = [v for _, v in result.rows]
        assert result.average == pytest.approx(sum(values) / 2)

    def test_table_and_chart_render(self):
        result = run_suite_overheads("spec", limit=2)
        assert "average" in result.table().render()
        assert "#" in result.chart()
