"""Tests for distance browsing: correctness, cost, and profiles.

The production paths (``repro.knn``'s wrappers over ``repro.knn.browse``)
are held to the heap browser of ``tests/heap_oracle.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import Point, Rect
from repro.geometry.hilbert import hilbert_order
from repro.index import GridIndex, IndexSnapshot, Quadtree, RTree
from repro.knn import (
    brute_force_knn,
    knn_select,
    select_cost_exact,
    select_cost_profile,
    select_costs,
)
from tests import heap_oracle
from tests.heap_oracle import DistanceBrowser, select_cost


def dist_to(q, pts):
    return np.hypot(pts[:, 0] - q.x, pts[:, 1] - q.y)


class TestCorrectness:
    def test_matches_brute_force(self, osm_points, osm_quadtree):
        rng = np.random.default_rng(0)
        for __ in range(20):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            k = int(rng.integers(1, 100))
            got, __cost = knn_select(osm_quadtree, q, k)
            want = brute_force_knn(osm_points, q, k)
            assert np.allclose(dist_to(q, got), dist_to(q, want))

    def test_incremental_order_nondecreasing(self, osm_quadtree):
        browser = DistanceBrowser(osm_quadtree, Point(500, 500))
        dists = [next(browser)[0] for __ in range(200)]
        assert dists == sorted(dists)

    def test_exhausts_index(self):
        pts = np.random.default_rng(1).uniform(0, 10, size=(50, 2))
        tree = Quadtree(pts, capacity=8)
        browser = DistanceBrowser(tree, Point(5, 5))
        results = list(browser)
        assert len(results) == 50
        assert browser.blocks_scanned == tree.num_blocks

    def test_k_larger_than_dataset(self):
        pts = np.random.default_rng(2).uniform(0, 10, size=(20, 2))
        tree = Quadtree(pts, capacity=4)
        got, cost = knn_select(tree, Point(5, 5), 100)
        assert got.shape[0] == 20
        assert cost == tree.num_blocks

    def test_rejects_k_zero(self, osm_quadtree):
        with pytest.raises(ValueError):
            knn_select(osm_quadtree, Point(0, 0), 0)

    @settings(max_examples=20, deadline=None)
    @given(
        arrays(
            float,
            st.tuples(st.integers(1, 60), st.just(2)),
            elements=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        ),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
        st.integers(1, 20),
    )
    def test_property_matches_brute_force(self, pts, qx, qy, k):
        tree = Quadtree(pts, capacity=4)
        q = Point(qx, qy)
        got, cost = knn_select(tree, q, k)
        want = brute_force_knn(pts, q, k)
        assert np.allclose(dist_to(q, got), dist_to(q, want))
        assert 1 <= cost <= tree.num_blocks


class TestCost:
    def test_cost_monotone_in_k(self, osm_quadtree):
        q = Point(432.0, 567.0)
        costs = [select_cost(osm_quadtree, q, k) for k in (1, 8, 64, 256)]
        assert costs == sorted(costs)

    def test_cost_at_least_one(self, osm_quadtree):
        assert select_cost(osm_quadtree, Point(1, 1), 1) >= 1

    def test_exact_cost_matches_browser(self, osm_quadtree, osm_count_index):
        rng = np.random.default_rng(5)
        pts = osm_quadtree.all_points()
        for __ in range(20):
            i = int(rng.integers(0, pts.shape[0]))
            q = Point(float(pts[i, 0]), float(pts[i, 1]))
            k = int(rng.integers(1, 300))
            assert select_cost(osm_quadtree, q, k) == select_cost_exact(
                osm_count_index, osm_quadtree.blocks, q, k
            )

    def test_exact_cost_uniform_queries(self, osm_quadtree, osm_count_index):
        rng = np.random.default_rng(6)
        for __ in range(20):
            q = Point(float(rng.uniform(0, 1000)), float(rng.uniform(0, 1000)))
            k = int(rng.integers(1, 300))
            assert select_cost(osm_quadtree, q, k) == select_cost_exact(
                osm_count_index, osm_quadtree.blocks, q, k
            )

    def test_exact_cost_k_beyond_dataset(self, osm_quadtree, osm_count_index):
        cost = select_cost_exact(
            osm_count_index, osm_quadtree.blocks, Point(500, 500), 10_000_000
        )
        assert cost == osm_quadtree.num_blocks


class TestProfile:
    def test_contiguous_from_one(self, osm_quadtree, osm_count_index):
        profile = select_cost_profile(
            osm_count_index, osm_quadtree.blocks, Point(500, 500), 500
        )
        assert profile[0][0] == 1
        for (__, prev_end, __c), (nxt_start, __e, __c2) in zip(profile, profile[1:]):
            assert nxt_start == prev_end + 1

    def test_costs_strictly_increasing(self, osm_quadtree, osm_count_index):
        profile = select_cost_profile(
            osm_count_index, osm_quadtree.blocks, Point(500, 500), 500
        )
        costs = [c for __, __e, c in profile]
        assert costs == sorted(costs)
        assert len(set(costs)) == len(costs)

    def test_covers_max_k(self, osm_quadtree, osm_count_index):
        profile = select_cost_profile(
            osm_count_index, osm_quadtree.blocks, Point(500, 500), 500
        )
        assert profile[-1][1] >= 500

    def test_agrees_with_browser_everywhere(self, osm_quadtree, osm_count_index):
        q = Point(345.0, 210.0)
        profile = select_cost_profile(osm_count_index, osm_quadtree.blocks, q, 200)
        for k_start, k_end, cost in profile:
            for k in {k_start, (k_start + k_end) // 2, min(k_end, 200)}:
                assert select_cost(osm_quadtree, q, k) == cost

    def test_empty_index(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        assert select_cost_profile(ci, [], Point(0, 0), 10) == []

    def test_rejects_bad_max_k(self, osm_quadtree, osm_count_index):
        with pytest.raises(ValueError):
            select_cost_profile(osm_count_index, osm_quadtree.blocks, Point(0, 0), 0)

    def test_grows_candidate_set_in_sparse_regions(self):
        # A tight cluster plus a far-away singleton: reaching k=3 from
        # the singleton requires expanding past the initial candidates.
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.0, 0.1], [100.0, 100.0]])
        tree = Quadtree(pts, capacity=1)
        ci = IndexSnapshot.from_index(tree)
        q = Point(100.0, 100.0)
        profile = select_cost_profile(ci, tree.blocks, q, 4)
        assert profile[-1][1] == 4
        # Looking up each k must match the real browser.
        for k in (1, 2, 3, 4):
            assert select_cost(tree, q, k) == next(
                c for ks, ke, c in profile if ks <= k <= ke
            )


def _substrates():
    """Index and snapshot per substrate: random points on a lattice
    (so MINDISTs tie across block boundaries), plus an empty index."""
    rng = np.random.default_rng(11)
    pts = np.floor(rng.uniform(0, 64, size=(600, 2)))
    quadtree = Quadtree(pts, bounds=Rect(0, 0, 64, 64), capacity=8)
    snapshot = IndexSnapshot.from_index(quadtree)
    hilbert = snapshot.with_layout(hilbert_order(snapshot.centers, snapshot.bounds))
    empty = Quadtree(np.empty((0, 2)), bounds=Rect(0, 0, 64, 64), capacity=8)
    return [
        pytest.param(quadtree, snapshot, id="quadtree"),
        pytest.param(GridIndex(pts, nx=9), None, id="grid"),
        pytest.param(RTree(pts, capacity=8), None, id="rtree"),
        pytest.param(quadtree, hilbert, id="hilbert-layout"),
        pytest.param(empty, None, id="empty"),
    ]


@pytest.mark.parametrize("index, snapshot", _substrates())
def test_select_costs_and_knn_select_equal_the_heap_oracle(index, snapshot):
    """Costs, neighbours and their (distance, x, y) order, for k = 1, a
    middle k and k > n, from lattice points (ties) and off-lattice ones."""
    n = index.num_points
    rng = np.random.default_rng(12)
    focal = np.vstack([np.floor(rng.uniform(0, 64, (6, 2))), rng.uniform(0, 64, (6, 2))])
    summary = index if snapshot is None else snapshot
    for k in (1, max(1, n // 2), n + 5):
        ks = np.full(focal.shape[0], k)
        want = [heap_oracle.knn_select(index, Point(x, y), k) for x, y in focal]
        costs = select_costs(summary, index.blocks, focal, ks)
        assert costs.tolist() == [cost for __, cost in want]
        for (x, y), (neighbors, cost) in zip(focal, want):
            got, got_cost = knn_select(index, Point(x, y), k)
            assert np.array_equal(got, neighbors) and got_cost == cost
            assert select_cost_exact(summary, index.blocks, Point(x, y), k) == cost


class TestBruteForce:
    def test_returns_sorted(self, osm_points):
        q = Point(500, 500)
        got = brute_force_knn(osm_points, q, 50)
        d = dist_to(q, got)
        assert np.all(np.diff(d) >= 0)

    def test_empty_points(self):
        assert brute_force_knn(np.empty((0, 2)), Point(0, 0), 3).shape == (0, 2)

    def test_k_capped_at_n(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        assert brute_force_knn(pts, Point(0, 0), 10).shape == (2, 2)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            brute_force_knn(np.array([[0.0, 0.0]]), Point(0, 0), 0)
