"""Cross-module property-based tests of the core invariants.

These tests encode the paper's algebraic facts as hypothesis
properties over randomly generated small worlds, complementing the
example-based suites.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.geometry import Point, Rect
from repro.index import IndexSnapshot, MutableQuadtree, Quadtree
from repro.knn import (
    locality_block_indices,
    locality_size,
    locality_size_profile,
    select_cost_profile,
)
from tests.heap_oracle import select_cost

small_points = arrays(
    float,
    st.tuples(st.integers(1, 80), st.just(2)),
    elements=st.floats(min_value=0.0, max_value=64.0, allow_nan=False),
)
coords = st.floats(min_value=0.0, max_value=64.0, allow_nan=False)


class TestSelectProfileProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_points, coords, coords, st.integers(1, 40))
    def test_profile_equals_browser_at_every_step(self, pts, qx, qy, max_k):
        tree = Quadtree(pts, capacity=4)
        counts = IndexSnapshot.from_index(tree)
        q = Point(qx, qy)
        profile = select_cost_profile(counts, tree.blocks, q, max_k)
        for k_start, k_end, cost in profile:
            assert select_cost(tree, q, k_start) == cost
            assert select_cost(tree, q, min(k_end, max_k)) == cost

    @settings(max_examples=25, deadline=None)
    @given(small_points, coords, coords)
    def test_cost_monotone_in_k(self, pts, qx, qy):
        tree = Quadtree(pts, capacity=4)
        q = Point(qx, qy)
        previous = 0
        for k in (1, 3, 9, 27):
            cost = select_cost(tree, q, k)
            assert cost >= previous
            previous = cost


class TestLocalityProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_points, coords, coords, coords, coords, st.integers(1, 30))
    def test_profile_matches_direct(self, pts, x1, y1, x2, y2, k):
        tree = Quadtree(pts, capacity=4)
        counts = IndexSnapshot.from_index(tree)
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        profile = locality_size_profile(counts, rect, 30)
        direct = locality_size(counts, rect, k)
        covered = min(k, counts.total_count)
        for k_start, k_end, size in profile:
            if k_start <= covered <= k_end:
                assert size == direct
                break
        else:  # pragma: no cover - profile must always cover k
            raise AssertionError("profile did not cover k")

    @settings(max_examples=25, deadline=None)
    @given(small_points, coords, coords, coords, coords)
    def test_locality_answers_knn_for_every_rect_point(self, pts, x1, y1, x2, y2):
        # The locality contract (Section 4): the MINDIST prefix returned
        # for an outer block must contain the k nearest neighbors of
        # EVERY point in it.  (Growth monotonicity in the outer rect
        # does NOT hold for Procedure 2: the running-MAXDIST mark is
        # conservative by a rect-dependent margin, so a larger rect can
        # legitimately need fewer blocks — e.g. when it contains a
        # >=k-point block whose own MAXDIST undercuts the mark a wide
        # early-prefix block forced on the smaller rect.)
        k = 5
        tree = Quadtree(pts, capacity=4)
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        block_ids = locality_block_indices(tree, rect, k)
        candidates = np.concatenate(
            [
                np.asarray(tree.blocks[int(i)].points, dtype=float).reshape(-1, 2)
                for i in block_ids
            ]
        )
        probes = [
            (rect.x_min, rect.y_min),
            (rect.x_min, rect.y_max),
            (rect.x_max, rect.y_min),
            (rect.x_max, rect.y_max),
            ((rect.x_min + rect.x_max) / 2.0, (rect.y_min + rect.y_max) / 2.0),
        ]
        kk = min(k, pts.shape[0])
        for qx, qy in probes:
            d_all = np.sort(np.hypot(pts[:, 0] - qx, pts[:, 1] - qy))
            d_loc = np.sort(np.hypot(candidates[:, 0] - qx, candidates[:, 1] - qy))
            assert np.array_equal(d_loc[:kk], d_all[:kk])


class MutableQuadtreeMachine(RuleBasedStateMachine):
    """Stateful test: the mutable quadtree tracks a reference multiset."""

    def __init__(self):
        super().__init__()
        self.tree = MutableQuadtree(bounds=Rect(0, 0, 64, 64), capacity=4, max_depth=12)
        self.reference: list[tuple[float, float]] = []

    @rule(x=coords, y=coords)
    def insert(self, x, y):
        self.tree.insert(x, y)
        self.reference.append((x, y))

    @rule(data=st.data())
    def delete_existing(self, data):
        if not self.reference:
            return
        idx = data.draw(st.integers(0, len(self.reference) - 1))
        x, y = self.reference.pop(idx)
        assert self.tree.delete(x, y)

    @rule(x=coords, y=coords)
    def delete_probably_missing(self, x, y):
        existed = (x, y) in self.reference
        deleted = self.tree.delete(x, y)
        if deleted:
            assert existed
            self.reference.remove((x, y))
        else:
            assert not existed

    @invariant()
    def count_matches(self):
        assert self.tree.num_points == len(self.reference)

    @invariant()
    def multiset_matches(self):
        got = sorted(map(tuple, self.tree.all_points()))
        assert got == sorted(self.reference)

    @invariant()
    def blocks_respect_capacity_or_depth(self):
        for block in self.tree.blocks:
            assert block.count <= 4 or self._depth_capped(block)

    def _depth_capped(self, block):
        # An overfull block is legal only at the depth cap.
        leaf = self.tree.leaf_for(block.rect.center)
        return leaf.depth >= 12


TestMutableQuadtreeStateful = MutableQuadtreeMachine.TestCase
TestMutableQuadtreeStateful.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None
)


class TestRangeCountProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_points, coords, coords, coords, coords)
    def test_range_count_bounded_by_total(self, pts, x1, y1, x2, y2):
        counts = IndexSnapshot.from_index(Quadtree(pts, capacity=4))
        region = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        estimate = counts.estimate_range_count(region)
        assert -1e-9 <= estimate <= counts.total_count + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(small_points)
    def test_whole_space_is_total(self, pts):
        tree = Quadtree(pts, capacity=4)
        counts = IndexSnapshot.from_index(tree)
        assert counts.estimate_range_count(tree.bounds) == (
            counts.total_count
        ) or abs(counts.estimate_range_count(tree.bounds) - counts.total_count) < 1e-6
