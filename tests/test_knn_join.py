"""The engine's locality k-NN-Join against the brute-force join, and the
exact join cost.

``naive_knn_join`` is the oracle: every outer point's k nearest inner
points by one distance matrix, no index involved.
"""

import numpy as np
import pytest

from repro.datasets import generate_osm_like
from repro.engine import KnnJoinQuery, SpatialEngine, SpatialTable, StatisticsManager, column
from repro.engine.physical import LocalityJoinOperator
from repro.knn import knn_join_cost


def naive_knn_join(outer_points: np.ndarray, inner_points: np.ndarray, k: int) -> np.ndarray:
    """Brute-force k-NN-Join: ``(n, min(k, m), 2)`` nearest inner points
    of each outer point, in distance order (stable on ties)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    outer_points = np.asarray(outer_points, dtype=float).reshape(-1, 2)
    inner_points = np.asarray(inner_points, dtype=float).reshape(-1, 2)
    k_eff = min(k, inner_points.shape[0])
    dists = np.hypot(
        outer_points[:, 0, None] - inner_points[None, :, 0],
        outer_points[:, 1, None] - inner_points[None, :, 1],
    )
    order = np.argsort(dists, axis=1, kind="stable")[:, :k_eff]
    return inner_points[order]


def _locality_join(outer_pts, inner_pts, k, capacity):
    """Run the engine's locality join with no predicate."""
    outer = SpatialTable("outer", outer_pts, capacity=capacity)
    inner = SpatialTable("inner", inner_pts, capacity=capacity)
    result = LocalityJoinOperator(outer, inner, KnnJoinQuery("outer", "inner", k)).execute()
    return outer, inner, result


@pytest.fixture(scope="module")
def predicate_engine():
    """1,500 inner and 300 outer OSM-like points of one city structure, the
    locality join pinned, and a uniform column ``u`` beside ``x``."""
    inner = generate_osm_like(1_500, seed=0, structure_seed=0)
    outer = generate_osm_like(300, seed=1, structure_seed=0)
    u = np.random.default_rng(2).uniform(0, 1, inner.shape[0])
    eng = SpatialEngine(StatisticsManager(pinned_operators={"join": "locality-join"}))
    eng.register(SpatialTable("inner", inner, {"x": inner[:, 0], "u": u}, capacity=16))
    eng.register(SpatialTable("outer", outer, capacity=16))
    return eng, inner, outer, u


PREDICATES = {
    "none": None,
    "uniform": column("u") < 0.3,
    "correlated": column("x") < 1000.0 / 3.0,
    "nothing-qualifies": column("u") < -1.0,
}


@pytest.mark.parametrize("k", [1, 5, 40, 2_000])
@pytest.mark.parametrize("kind", list(PREDICATES))
def test_locality_join_equals_brute_force_over_the_qualifying_rows(predicate_engine, kind, k):
    eng, inner, outer, u = predicate_engine
    keep = {
        "none": np.ones(inner.shape[0], dtype=bool),
        "uniform": u < 0.3,
        "correlated": inner[:, 0] < 1000.0 / 3.0,
        "nothing-qualifies": np.zeros(inner.shape[0], dtype=bool),
    }[kind]
    query = KnnJoinQuery("outer", "inner", k=k, inner_predicate=PREDICATES[kind])
    result, explanation = eng.execute(query)
    assert explanation.chosen == "locality-join"
    qualifying = inner[keep]
    want = naive_knn_join(outer, qualifying, k) if keep.any() else np.empty((len(outer), 0, 2))
    pairs = dict(result.join_pairs)
    assert sorted(pairs) == list(range(len(outer)))
    for row, (x, y) in enumerate(outer):
        assert np.all(keep[pairs[row]])
        got = np.sort(np.hypot(inner[pairs[row], 0] - x, inner[pairs[row], 1] - y))
        assert np.array_equal(got, np.hypot(want[row, :, 0] - x, want[row, :, 1] - y)), row
    if kind == "none":
        tables = eng.stats.table("outer"), eng.stats.table("inner")
        assert result.blocks_scanned == knn_join_cost(tables[0].index, tables[1].index, k)


class TestJoinCorrectness:
    def test_matches_naive_join(self):
        rng = np.random.default_rng(0)
        outer_pts = rng.uniform(0, 100, size=(200, 2))
        inner_pts = rng.uniform(0, 100, size=(300, 2))
        k = 5

        outer, inner, result = _locality_join(outer_pts, inner_pts, k, capacity=32)
        want = naive_knn_join(outer_pts, inner_pts, k)
        assert sorted(row for row, __ in result.join_pairs) == list(range(200))
        for outer_row, inner_rows in result.join_pairs:
            assert np.array_equal(inner.points[inner_rows], want[outer_row]), outer_row
        assert result.blocks_scanned == knn_join_cost(outer.index, inner.index, k)

    def test_k_exceeds_inner_size(self):
        rng = np.random.default_rng(1)
        outer_pts = rng.uniform(0, 10, size=(20, 2))
        inner_pts = rng.uniform(0, 10, size=(7, 2))
        outer, inner, result = _locality_join(outer_pts, inner_pts, 20, capacity=8)
        assert len(result.join_pairs) == 20
        for __, inner_rows in result.join_pairs:
            assert inner_rows.shape == (7,)
        assert result.blocks_scanned == knn_join_cost(outer.index, inner.index, 20)

    def test_rejects_k_zero(self, osm_quadtree, inner_quadtree):
        with pytest.raises(ValueError):
            KnnJoinQuery("outer", "inner", 0)
        with pytest.raises(ValueError):
            knn_join_cost(osm_quadtree, inner_quadtree, 0)

    def test_asymmetry(self, osm_quadtree, inner_quadtree):
        """R join S and S join R are different operations with, in
        general, different costs (Section 2)."""
        c1 = knn_join_cost(osm_quadtree, inner_quadtree, 16)
        c2 = knn_join_cost(inner_quadtree, osm_quadtree, 16)
        assert c1 > 0 and c2 > 0
        # Not asserting inequality (could coincide), but both are valid
        # and independently computed.


class TestJoinCost:
    def test_cost_monotone_in_k(self, osm_quadtree, inner_quadtree):
        costs = [knn_join_cost(osm_quadtree, inner_quadtree, k) for k in (1, 16, 256)]
        assert costs == sorted(costs)

    def test_cost_bounds(self, osm_quadtree, inner_quadtree):
        cost = knn_join_cost(osm_quadtree, inner_quadtree, 1)
        # Each outer block scans at least one inner block and at most
        # all of them.
        n_outer = osm_quadtree.num_blocks
        n_inner = inner_quadtree.num_blocks
        assert n_outer <= cost <= n_outer * n_inner


class TestNaiveJoin:
    def test_shapes(self):
        out = naive_knn_join(np.zeros((3, 2)), np.ones((10, 2)), 4)
        assert out.shape == (3, 4, 2)

    def test_neighbors_sorted_by_distance(self):
        rng = np.random.default_rng(2)
        outer = rng.uniform(0, 1, size=(5, 2))
        inner = rng.uniform(0, 1, size=(50, 2))
        out = naive_knn_join(outer, inner, 10)
        d = np.linalg.norm(out - outer[:, None, :], axis=2)
        assert np.all(np.diff(d, axis=1) >= -1e-12)

    def test_empty_outer(self):
        out = naive_knn_join(np.empty((0, 2)), np.ones((5, 2)), 3)
        assert out.shape[0] == 0

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            naive_knn_join(np.zeros((1, 2)), np.zeros((1, 2)), 0)
