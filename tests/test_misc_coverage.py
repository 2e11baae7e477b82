"""Small-surface tests: formatting, caches, summaries, misc helpers."""

import numpy as np
import pytest

from repro.experiments import join_support, select_support
from repro.experiments.common import ExperimentResult, clear_caches, get_config
from repro.experiments.common import _format_cell
from repro.optimizer import arbitrate, regression


class TestCellFormatting:
    def test_integers_plain(self):
        assert _format_cell(42) == "42"

    def test_zero_float(self):
        assert _format_cell(0.0) == "0"

    def test_small_float_scientific(self):
        assert "e" in _format_cell(1.5e-7)

    def test_large_float_scientific(self):
        assert "e" in _format_cell(123456789.0)

    def test_normal_float_compact(self):
        assert _format_cell(0.1234567) == "0.1235"

    def test_bool_verbatim(self):
        assert _format_cell(True) == "True"

    def test_string_verbatim(self):
        assert _format_cell("10x10") == "10x10"


class TestExperimentCaches:
    def test_clear_caches_is_idempotent(self):
        clear_caches()
        select_support.clear_caches()
        join_support.clear_caches()
        # Rebuild something small to prove the caches still work.
        cfg = get_config("quick")
        est = select_support.staircase_estimator(cfg, 1)
        assert est is select_support.staircase_estimator(cfg, 1)  # cached
        select_support.clear_caches()
        assert est is not select_support.staircase_estimator(cfg, 1)


class TestPlanChoice:
    def test_predicted_speedup(self):
        record = regression.run_workload("uniform-quadtree-select")
        costs = record["candidates"].values()
        assert record["estimated_cost"] == min(costs)
        assert record["predicted_speedup"] == pytest.approx(max(costs) / min(costs))

    def test_speedup_with_zero_cost(self):
        candidates = {"filter-then-knn": 10.0, "incremental-knn": 0.0}
        choice = arbitrate("select", "t", candidates, tuple(candidates))
        assert choice.operator == "incremental-knn"
        assert regression.predicted_speedup(candidates) is None  # infinite


class TestResultColumnErrors:
    def test_unknown_column_raises(self):
        result = ExperimentResult("x", "t", columns=("a",))
        with pytest.raises(ValueError):
            result.column("b")


class TestVizEdgeCases:
    def test_single_entry_staircase(self):
        from repro.catalog import IntervalCatalog
        from repro.viz import render_staircase

        art = render_staircase(IntervalCatalog.constant(5.0, 100), width=20, height=5)
        assert "*" in art

    def test_blocks_render_of_single_block_index(self):
        from repro.index import Quadtree
        from repro.viz import render_blocks

        tree = Quadtree(np.array([[1.0, 1.0], [2.0, 2.0]]), capacity=8)
        art = render_blocks(tree, width=10, height=6)
        assert "+" in art
