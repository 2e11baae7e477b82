"""Tests for locality computation and its staircase profile."""

import numpy as np
import pytest

from repro.geometry import Point, Rect
from repro.index import IndexSnapshot, Quadtree
from repro.knn import locality_block_indices, locality_size, locality_size_profile
from repro.knn.distance_browsing import brute_force_knn


class TestLocalityDefinition:
    def test_contains_at_least_k_points(self, osm_quadtree, inner_count_index):
        rng = np.random.default_rng(0)
        for __ in range(10):
            block = osm_quadtree.blocks[int(rng.integers(0, osm_quadtree.num_blocks))]
            k = int(rng.integers(1, 200))
            idx = locality_block_indices(inner_count_index, block.rect, k)
            total = int(inner_count_index.counts[idx].sum())
            assert total >= min(k, inner_count_index.total_count)

    def test_locality_is_mindist_prefix(self, osm_quadtree, inner_count_index):
        block = osm_quadtree.blocks[3]
        idx = locality_block_indices(inner_count_index, block.rect, 50)
        order, __ = inner_count_index.mindist_order(block.rect)
        assert np.array_equal(idx, order[: idx.shape[0]])

    def test_guarantees_knn_of_every_point(self, osm_quadtree, inner_quadtree,
                                            inner_count_index):
        """The locality must contain the true k-NN of every point in the
        outer block — the defining property from Sankaranarayanan et al."""
        rng = np.random.default_rng(1)
        inner_pts = inner_quadtree.all_points()
        for __ in range(5):
            block = osm_quadtree.blocks[int(rng.integers(0, osm_quadtree.num_blocks))]
            k = int(rng.integers(1, 40))
            idx = locality_block_indices(inner_count_index, block.rect, k)
            locality_pts = np.concatenate(
                [inner_quadtree.blocks[i].points for i in idx]
            )
            for row in block.points[:: max(1, block.count // 5)]:
                q = Point(float(row[0]), float(row[1]))
                true_knn = brute_force_knn(inner_pts, q, k)
                local_knn = brute_force_knn(locality_pts, q, k)
                d_true = np.hypot(true_knn[:, 0] - q.x, true_knn[:, 1] - q.y)
                d_local = np.hypot(local_knn[:, 0] - q.x, local_knn[:, 1] - q.y)
                assert np.allclose(d_true, d_local)

    def test_k_exceeding_inner_population_returns_everything(self, inner_count_index):
        idx = locality_block_indices(
            inner_count_index, Rect(0, 0, 1, 1), inner_count_index.total_count + 1
        )
        assert idx.shape[0] == inner_count_index.n_blocks

    def test_empty_inner(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        assert locality_block_indices(ci, Rect(0, 0, 1, 1), 5).shape[0] == 0

    def test_rejects_k_zero(self, inner_count_index):
        with pytest.raises(ValueError):
            locality_block_indices(inner_count_index, Rect(0, 0, 1, 1), 0)

    def test_locality_size_monotone_in_k(self, osm_quadtree, inner_count_index):
        block = osm_quadtree.blocks[0]
        sizes = [
            locality_size(inner_count_index, block.rect, k) for k in (1, 10, 100, 1000)
        ]
        assert sizes == sorted(sizes)


class TestLocalityProfile:
    def test_matches_direct_computation(self, osm_quadtree, inner_count_index):
        """Procedure 2's catalog must agree with the direct locality
        computation at every k — the paper's central invariant."""
        rng = np.random.default_rng(2)
        for __ in range(5):
            block = osm_quadtree.blocks[int(rng.integers(0, osm_quadtree.num_blocks))]
            profile = locality_size_profile(inner_count_index, block.rect, 400)
            for k_start, k_end, size in profile:
                for k in {k_start, (k_start + k_end) // 2, k_end}:
                    assert locality_size(inner_count_index, block.rect, k) == size

    def test_contiguous_from_one(self, osm_quadtree, inner_count_index):
        profile = locality_size_profile(
            inner_count_index, osm_quadtree.blocks[1].rect, 300
        )
        assert profile[0][0] == 1
        for (__, prev_end, __s), (nxt_start, __e, __s2) in zip(profile, profile[1:]):
            assert nxt_start == prev_end + 1

    def test_sizes_strictly_increasing_after_merge(
        self, osm_quadtree, inner_count_index
    ):
        profile = locality_size_profile(
            inner_count_index, osm_quadtree.blocks[1].rect, 300
        )
        sizes = [s for __, __e, s in profile]
        # Redundant-entry elimination merged equal neighbours.
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_covers_max_k(self, osm_quadtree, inner_count_index):
        profile = locality_size_profile(
            inner_count_index, osm_quadtree.blocks[2].rect, 300
        )
        assert profile[-1][1] >= 300

    def test_profile_ends_at_total_count_when_small(self):
        pts = np.random.default_rng(3).uniform(0, 10, size=(30, 2))
        tree = Quadtree(pts, capacity=8)
        ci = IndexSnapshot.from_index(tree)
        profile = locality_size_profile(ci, Rect(0, 0, 2, 2), 1000)
        assert profile[-1][1] == 30

    def test_empty_inner(self):
        ci = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=int))
        assert locality_size_profile(ci, Rect(0, 0, 1, 1), 10) == []

    def test_rejects_bad_max_k(self, inner_count_index):
        with pytest.raises(ValueError):
            locality_size_profile(inner_count_index, Rect(0, 0, 1, 1), 0)
