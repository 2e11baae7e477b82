"""Tests for cost-based plan choice, driven through the engine.

The paper's two arbitrations (Section 1): filter-then-kNN versus
incremental distance browsing for a predicate-constrained k-NN-Select,
and many independent selects versus one shared k-NN-Join — the latter
is a :class:`KnnJoinQuery` with the query points registered as the
outer table.
"""

import math

import numpy as np
import pytest

from repro.engine import (
    KnnJoinQuery,
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.engine.physical import LocalityJoinOperator
from repro.geometry import Point

FILTER = "filter-then-knn"
BROWSE = "incremental-knn"

#: A deterministic 50%-selective predicate, and a 2%-selective one.
CHEAP = column("coin") == 0
RARE = column("lot") == 0


@pytest.fixture(scope="module")
def table():
    from repro.datasets import generate_osm_like

    pts = generate_osm_like(4_000, seed=9)
    rows = np.arange(pts.shape[0])
    return SpatialTable("pois", pts, {"coin": rows % 2, "lot": rows % 50}, capacity=64)


def _engine(table, pin=None):
    engine = SpatialEngine(
        StatisticsManager(
            max_k=512,
            join_sample_size=50,
            pinned_operators=None if pin is None else {"select": pin},
        )
    )
    engine.register(table)
    return engine


@pytest.fixture(scope="module")
def engine(table):
    return _engine(table)


@pytest.fixture(scope="module")
def filter_engine(table):
    return _engine(table, FILTER)


@pytest.fixture(scope="module")
def browse_engine(table):
    return _engine(table, BROWSE)


def _select(q, k, predicate=CHEAP):
    return KnnSelectQuery("pois", q, k=k, predicate=predicate)


def _distances(table, row_ids, q):
    pts = table.points[row_ids]
    return np.hypot(pts[:, 0] - q.x, pts[:, 1] - q.y)


class TestPlans:
    def test_filter_then_knn_scans_everything(self, table, filter_engine):
        result, explanation = filter_engine.execute(_select(Point(500, 500), 5))
        assert result.operator == FILTER
        assert result.blocks_scanned == table.index.num_blocks
        assert explanation.cost_of(FILTER) == table.index.num_blocks

    def test_filter_then_knn_results_satisfy_predicate(self, table, filter_engine):
        result, __ = filter_engine.execute(_select(Point(500, 500), 10))
        assert result.n_results == 10
        assert CHEAP.evaluate(table, result.row_ids).all()

    def test_incremental_returns_k_qualifying(self, table, browse_engine):
        result, __ = browse_engine.execute(_select(Point(500, 500), 10))
        assert result.operator == BROWSE
        assert result.n_results == 10
        assert CHEAP.evaluate(table, result.row_ids).all()

    def test_incremental_results_in_distance_order(self, table, browse_engine):
        q = Point(500, 500)
        result, __ = browse_engine.execute(_select(q, 20))
        assert np.all(np.diff(_distances(table, result.row_ids, q)) >= 0)

    def test_two_plans_agree_on_answers(self, table, filter_engine, browse_engine):
        q = Point(321, 654)
        a, __ = filter_engine.execute(_select(q, 8))
        b, __ = browse_engine.execute(_select(q, 8))
        assert np.array_equal(
            _distances(table, a.row_ids, q), _distances(table, b.row_ids, q)
        )

    def test_incremental_usually_cheaper_for_small_k(self, filter_engine, browse_engine):
        q = Point(500, 500)
        a, __ = filter_engine.execute(_select(q, 5))
        b, __ = browse_engine.execute(_select(q, 5))
        assert b.blocks_scanned < a.blocks_scanned

    def test_effective_k(self, engine):
        """Browsing is costed at k' = ceil(k / σ) for the sampled σ."""
        explanation = engine.explain(_select(Point(500, 500), 10, RARE))
        assert 0.01 < explanation.selectivity < 0.03
        assert explanation.effective_k == math.ceil(10 / explanation.selectivity)

    def test_selectivity_validation(self, table, engine):
        """σ stays in (0, 1]: the planner clamps what it samples, and the
        operator that is handed a selectivity rejects anything else."""
        never = engine.explain(_select(Point(500, 500), 10, column("lot") < 0))
        always = engine.explain(_select(Point(500, 500), 10, column("lot") >= 0))
        assert 0.0 < never.selectivity <= 1.0 / 1_000
        assert always.selectivity == 1.0
        query = KnnJoinQuery("pois", "pois", 4)
        for selectivity in (0.0, 1.5):
            with pytest.raises(ValueError):
                LocalityJoinOperator(table, table, query, selectivity=selectivity)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            KnnSelectQuery("pois", Point(0, 0), k=0)


class TestChooser:
    def test_chooses_incremental_for_selective_small_k(self, engine):
        explanation = engine.explain(_select(Point(500, 500), 5))
        assert explanation.chosen == BROWSE
        assert explanation.cost_of(FILTER) / explanation.cost_of(BROWSE) > 1

    def test_chooses_filter_for_rare_predicate_large_k(self, engine):
        """With a 2% predicate and large k, incremental browsing needs
        k/0.02 neighbors — more than a full scan costs."""
        explanation = engine.explain(_select(Point(500, 500), 400, RARE))
        assert explanation.chosen == FILTER

    def test_choice_matches_actual_costs(self, engine, filter_engine, browse_engine):
        """The chosen plan should actually be the cheaper one to run on
        a decisive workload (this is the paper's whole motivation)."""
        query = _select(Point(500, 500), 5)
        actual_filter = filter_engine.execute(query)[0].blocks_scanned
        actual_incremental = browse_engine.execute(query)[0].blocks_scanned
        actually_cheaper = FILTER if actual_filter <= actual_incremental else BROWSE
        assert engine.explain(query).chosen == actually_cheaper


class TestBatchChooser:
    """Many selects vs. one shared join: the batch is the outer table."""

    def test_small_batch_prefers_selects(self, table):
        engine = _engine(table)
        # Two far-apart query points: one outer block spanning the map,
        # whose shared locality covers far more than two selects scan.
        engine.register(SpatialTable("batch", [[100.0, 100.0], [900.0, 900.0]]))
        explanation = engine.explain(KnnJoinQuery("batch", "pois", 8))
        assert explanation.chosen == "per-point-selects"
        assert explanation.cost_of("per-point-selects") < explanation.cost_of(
            "locality-join"
        )

    def test_rejects_empty_batch(self, table):
        """An empty batch is never costed: no estimator runs, the plan
        is the zero-cost trivial one and the guard says why."""
        engine = _engine(table)
        engine.register(SpatialTable("batch", np.empty((0, 2))))
        result, explanation = engine.execute(KnnJoinQuery("batch", "pois", 8))
        assert explanation.alternatives == {"per-point-selects": 0.0}
        assert explanation.estimator_tier == ""
        assert any("empty" in note for note in explanation.notes)
        assert result.blocks_scanned == 0 and result.join_pairs == []

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            KnnJoinQuery("batch", "pois", 0)
