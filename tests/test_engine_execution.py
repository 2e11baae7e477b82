"""End-to-end tests of the engine: planning, execution, correctness."""

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine import (
    KnnJoinQuery,
    KnnSelectQuery,
    SpatialEngine,
    SpatialTable,
    StatisticsManager,
    column,
)
from repro.geometry import Point, Rect
from repro.knn import brute_force_knn


@pytest.fixture(scope="module")
def engine():
    rng = np.random.default_rng(0)
    restaurants = generate_osm_like(10_000, seed=3)
    hotels = generate_osm_like(2_000, seed=4, structure_seed=3)
    eng = SpatialEngine(StatisticsManager(max_k=512, join_sample_size=100))
    eng.register(
        SpatialTable(
            "restaurants",
            restaurants,
            {
                "price": rng.uniform(10, 110, restaurants.shape[0]),
                "stars": rng.integers(1, 6, restaurants.shape[0]),
            },
            capacity=128,
        )
    )
    eng.register(SpatialTable("hotels", hotels, capacity=128))
    return eng


class TestSelectExecution:
    def test_plain_knn_matches_brute_force(self, engine):
        table = engine.stats.table("restaurants")
        q = KnnSelectQuery("restaurants", Point(500, 500), k=10)
        result, explanation = engine.execute(q)
        assert result.n_results == 10
        want = brute_force_knn(table.points, q.query, 10)
        got_d = np.hypot(
            table.points[result.row_ids, 0] - 500,
            table.points[result.row_ids, 1] - 500,
        )
        want_d = np.hypot(want[:, 0] - 500, want[:, 1] - 500)
        assert np.allclose(got_d, want_d)
        assert explanation.chosen == "incremental-knn"

    def test_predicate_respected(self, engine):
        table = engine.stats.table("restaurants")
        q = KnnSelectQuery(
            "restaurants", Point(400, 600), k=7, predicate=column("price") < 40
        )
        result, __ = engine.execute(q)
        assert result.n_results == 7
        assert np.all(table.column_values("price")[result.row_ids] < 40)

    def test_region_respected(self, engine):
        region = Rect(300, 300, 700, 700)
        q = KnnSelectQuery("restaurants", Point(500, 500), k=5, region=region)
        result, __ = engine.execute(q)
        table = engine.stats.table("restaurants")
        pts = table.points[result.row_ids]
        assert np.all((pts[:, 0] >= 300) & (pts[:, 0] <= 700))
        assert np.all((pts[:, 1] >= 300) & (pts[:, 1] <= 700))

    def test_both_plans_return_same_answer(self, engine):
        from repro.engine.physical import FilterThenKnnOperator, IncrementalKnnOperator

        table = engine.stats.table("restaurants")
        q = KnnSelectQuery(
            "restaurants", Point(512, 488), k=9, predicate=column("stars") >= 3
        )
        a = FilterThenKnnOperator(table, q).execute()
        b = IncrementalKnnOperator(table, q).execute()
        da = np.hypot(
            table.points[a.row_ids, 0] - q.query.x,
            table.points[a.row_ids, 1] - q.query.y,
        )
        db = np.hypot(
            table.points[b.row_ids, 0] - q.query.x,
            table.points[b.row_ids, 1] - q.query.y,
        )
        assert np.allclose(da, db)
        assert a.blocks_scanned == table.index.num_blocks
        assert b.blocks_scanned <= a.blocks_scanned

    def test_impossible_predicate_exhausts_gracefully(self, engine):
        q = KnnSelectQuery(
            "restaurants", Point(500, 500), k=3, predicate=column("price") < -5
        )
        result, __ = engine.execute(q)
        assert result.n_results == 0

    def test_selective_predicate_prefers_full_scan(self, engine):
        """A ~1%-selective predicate with large k should flip the plan."""
        q = KnnSelectQuery(
            "restaurants",
            Point(500, 500),
            k=400,
            predicate=column("price") < 11,
        )
        explanation = engine.explain(q)
        assert explanation.chosen == "filter-then-knn"

    def test_explanation_costs_track_actuals(self, engine):
        """On a decisive query the plan with the lower estimate must
        actually be cheaper to run (the paper's whole point)."""
        from repro.engine.physical import FilterThenKnnOperator, IncrementalKnnOperator

        table = engine.stats.table("restaurants")
        q = KnnSelectQuery(
            "restaurants", Point(480, 520), k=5, predicate=column("price") < 60
        )
        explanation = engine.explain(q)
        actual_filter = FilterThenKnnOperator(table, q).execute().blocks_scanned
        actual_incremental = IncrementalKnnOperator(table, q).execute().blocks_scanned
        cheaper = (
            "incremental-knn" if actual_incremental < actual_filter else "filter-then-knn"
        )
        assert explanation.chosen == cheaper

    def test_out_of_bounds_focal_point(self, engine):
        q = KnnSelectQuery("restaurants", Point(-500.0, -500.0), k=3)
        result, __ = engine.execute(q)
        assert result.n_results == 3


class TestJoinExecution:
    def test_join_matches_brute_force(self, engine):
        q = KnnJoinQuery("hotels", "restaurants", k=5)
        result, explanation = engine.execute(q)
        hotels = engine.stats.table("hotels")
        restaurants = engine.stats.table("restaurants")
        assert result.n_results == hotels.n_rows
        rng = np.random.default_rng(1)
        pair_map = dict(result.join_pairs)
        for outer_row in rng.integers(0, hotels.n_rows, size=10):
            qp = Point(
                float(hotels.points[outer_row, 0]), float(hotels.points[outer_row, 1])
            )
            want = brute_force_knn(restaurants.points, qp, 5)
            inner_rows = pair_map[int(outer_row)]
            got_d = np.sort(
                np.hypot(
                    restaurants.points[inner_rows, 0] - qp.x,
                    restaurants.points[inner_rows, 1] - qp.y,
                )
            )
            want_d = np.hypot(want[:, 0] - qp.x, want[:, 1] - qp.y)
            assert np.allclose(got_d, want_d)

    def test_join_with_predicate_high_recall(self, engine):
        """With a predicate the locality join inflates k by 1/σ and browses
        the rows its localities cannot settle: recall is not just high but
        total, every answer equals the exact filtered one."""
        q = KnnJoinQuery(
            "hotels", "restaurants", k=5, inner_predicate=column("stars") >= 3
        )
        result, __ = engine.execute(q)
        hotels = engine.stats.table("hotels")
        restaurants = engine.stats.table("restaurants")
        stars = restaurants.column_values("stars")
        qualifying = np.flatnonzero(stars >= 3)
        rng = np.random.default_rng(2)
        pair_map = dict(result.join_pairs)
        for outer_row in rng.integers(0, hotels.n_rows, size=20):
            qp = Point(
                float(hotels.points[outer_row, 0]), float(hotels.points[outer_row, 1])
            )
            want = brute_force_knn(restaurants.points[qualifying], qp, 5)
            inner_rows = pair_map[int(outer_row)]
            assert np.all(stars[inner_rows] >= 3)
            got_d = np.sort(
                np.hypot(
                    restaurants.points[inner_rows, 0] - qp.x,
                    restaurants.points[inner_rows, 1] - qp.y,
                )
            )
            assert np.array_equal(got_d, np.hypot(want[:, 0] - qp.x, want[:, 1] - qp.y))

    def test_locality_join_cost_matches_library(self, engine):
        """The engine's locality join must scan exactly the blocks the
        library-level cost function predicts (same algorithm)."""
        from repro.engine.physical import LocalityJoinOperator
        from repro.knn import knn_join_cost

        hotels = engine.stats.table("hotels")
        restaurants = engine.stats.table("restaurants")
        q = KnnJoinQuery("hotels", "restaurants", k=6)
        result = LocalityJoinOperator(hotels, restaurants, q).execute()
        assert result.blocks_scanned == knn_join_cost(
            hotels.index, restaurants.index, 6
        )

    def test_join_predicate_wipes_out_inner(self, engine):
        """A predicate no inner row satisfies yields empty neighbor
        lists for every outer row, without crashing."""
        from repro.engine import column as col

        q = KnnJoinQuery(
            "hotels", "restaurants", k=3, inner_predicate=col("price") < -1
        )
        result, __ = engine.execute(q)
        assert result.n_results == engine.stats.table("hotels").n_rows
        assert all(rows.size == 0 for __r, rows in result.join_pairs)

    def test_small_outer_prefers_per_point_selects(self):
        restaurants = generate_osm_like(10_000, seed=3)
        few_hotels = generate_osm_like(10_000, seed=4, structure_seed=3)[:30]
        eng = SpatialEngine(StatisticsManager(max_k=256, join_sample_size=50))
        eng.register(SpatialTable("restaurants", restaurants, capacity=128))
        eng.register(SpatialTable("hotels", few_hotels, capacity=128))
        q = KnnJoinQuery("hotels", "restaurants", k=4)
        result, explanation = eng.execute(q)
        assert explanation.chosen == "per-point-selects"
        assert result.n_results == 30


class TestCorrelatedPredicateJoin:
    """A predicate that keeps one side of the world.

    The locality join raises k to k′ = ⌈k/σ⌉, yet with the qualifying
    rows packed into the western third a k′-locality can hold fewer than
    k of them.  Here (10,000 inner and 2,000 outer OSM-like points
    sharing one city structure, capacity 128, k = 5, σ = 0.336) the
    planner picks the locality join at 4,731 estimated blocks against
    6,224 for per-point selects.  Without its fallback browse, 748 of
    the 2,000 outer rows got a neighbour list that differs from brute
    force over the qualifying rows; with it, 930 rows are browsed and the
    join reads 134,731 blocks (per-point selects read 148,927).
    """

    K = 5
    WEST = 1000.0 / 3.0

    @pytest.fixture(scope="class")
    def setup(self):
        inner = generate_osm_like(10_000, seed=0, structure_seed=0)
        outer = generate_osm_like(2_000, seed=1, structure_seed=0)
        eng = SpatialEngine(StatisticsManager())
        eng.register(SpatialTable("inner", inner, {"x": inner[:, 0]}, capacity=128))
        eng.register(SpatialTable("outer", outer, capacity=128))
        query = KnnJoinQuery("outer", "inner", k=self.K, inner_predicate=column("x") < self.WEST)
        return eng, query, inner, outer

    def test_the_planner_picks_the_locality_join(self, setup):
        eng, query, __, __ = setup
        explanation = eng.explain(query)
        assert explanation.chosen == "locality-join"
        assert explanation.cost_of("locality-join") < explanation.cost_of("per-point-selects")

    def test_answers_equal_brute_force_over_the_qualifying_rows(self, setup):
        eng, query, inner, outer = setup
        result, __ = eng.execute(query)
        qualifying = inner[inner[:, 0] < self.WEST]
        pairs = dict(result.join_pairs)
        wrong = 0
        for row, (x, y) in enumerate(outer):
            want = np.sort(np.hypot(qualifying[:, 0] - x, qualifying[:, 1] - y))[: self.K]
            got = np.sort(np.hypot(inner[pairs[row], 0] - x, inner[pairs[row], 1] - y))
            wrong += not np.array_equal(got, want)
        assert wrong == 0, f"{wrong} of {len(outer)} outer rows differ from brute force"


class TestEngineApi:
    def test_unknown_table(self, engine):
        with pytest.raises(KeyError):
            engine.explain(KnnSelectQuery("nonexistent", Point(0, 0), k=1))

    def test_unsupported_query_type(self, engine):
        with pytest.raises(TypeError):
            engine.execute("SELECT * FROM nowhere")

    def test_explanation_str(self, engine):
        explanation = engine.explain(
            KnnSelectQuery("restaurants", Point(500, 500), k=3)
        )
        text = str(explanation)
        assert "chosen" in text and "blocks" in text

    def test_catalog_accounting(self, engine):
        engine.explain(KnnSelectQuery("restaurants", Point(500, 500), k=3))
        assert engine.stats.total_catalog_bytes() > 0

    def test_select_on_empty_table(self):
        eng = SpatialEngine()
        eng.register(SpatialTable("void", np.empty((0, 2))))
        result, explanation = eng.execute(
            KnnSelectQuery("void", Point(0, 0), k=3)
        )
        assert result.n_results == 0
        assert result.blocks_scanned == 0
        assert explanation.chosen == "filter-then-knn"

    def test_join_with_empty_relation(self):
        eng = SpatialEngine()
        eng.register(SpatialTable("void", np.empty((0, 2))))
        eng.register(
            SpatialTable(
                "some", np.random.default_rng(0).uniform(0, 10, (100, 2)), capacity=32
            )
        )
        result, __ = eng.execute(KnnJoinQuery("void", "some", k=3))
        assert result.n_results == 0
        result, __ = eng.execute(KnnJoinQuery("some", "void", k=3))
        assert result.n_results == 100
        assert all(rows.size == 0 for __r, rows in result.join_pairs)

    def test_reregistering_drops_stale_statistics(self):
        eng = SpatialEngine(StatisticsManager(max_k=64))
        pts = np.random.default_rng(3).uniform(0, 10, (500, 2))
        eng.register(SpatialTable("t", pts, capacity=32))
        eng.explain(KnnSelectQuery("t", Point(5, 5), k=3))
        assert eng.stats.total_catalog_bytes() > 0
        eng.register(SpatialTable("t", pts[:100], capacity=32))
        # Statistics for the replaced table are gone until next use.
        assert eng.stats.total_catalog_bytes() == 0
