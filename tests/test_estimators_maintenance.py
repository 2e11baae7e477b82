"""Tests for catalog maintenance under updates."""

import numpy as np
import pytest

from repro.estimators import MaintainedStaircaseEstimator, StaircaseEstimator
from repro.geometry import Point, Rect
from repro.index import MutableQuadtree, Quadtree
from repro.knn import select_cost
from tests.reference_builds import assert_matches_gather


def build(n=2_000, seed=0, capacity=64):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0, 100, size=(n, 2))
    tree = MutableQuadtree(pts, bounds=Rect(0, 0, 100, 100), capacity=capacity)
    return tree, pts, rng


class TestFreshEquivalence:
    def test_matches_static_estimator_without_updates(self):
        tree, pts, rng = build()
        maintained = MaintainedStaircaseEstimator(tree, max_k=128)
        static = StaircaseEstimator(
            Quadtree(pts, bounds=Rect(0, 0, 100, 100), capacity=64), max_k=128
        )
        for __ in range(20):
            q = Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            k = int(rng.integers(1, 128))
            # Same space partition (same build), same catalogs.
            assert maintained.estimate(q, k) == static.estimate(q, k)

    def test_exact_at_leaf_centers(self):
        tree, __, rng = build()
        maintained = MaintainedStaircaseEstimator(tree, max_k=64)
        for leaf in tree.leaves[:10]:
            if leaf.block is None:
                continue
            center = leaf.rect.center
            k = int(rng.integers(1, 64))
            assert maintained.estimate(center, k) == select_cost(tree, center, k)


class TestLazyRefresh:
    def test_estimates_track_inserts(self):
        tree, __, __rng = build(n=500, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        q = Point(50.0, 50.0)
        before = maintained.estimate(q, 16)
        # Dump a dense pile of points right at the query location: the
        # local cost for small k must drop to ~1 block after refresh.
        rng = np.random.default_rng(1)
        for __ in range(400):
            tree.insert(
                float(50 + rng.normal() * 0.05), float(50 + rng.normal() * 0.05)
            )
        after = maintained.estimate(q, 16)
        actual = select_cost(tree, q, 16)
        assert abs(after - actual) <= abs(before - actual)

    def test_leaf_refresh_without_full_rebuild(self):
        tree, __, __rng = build(n=2_000, capacity=64)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        tree.insert(25.0, 25.0)  # dirty exactly this neighbourhood
        report = maintained.refresh_incremental()
        assert report.mode == "incremental"
        assert 0 < report.catalogs_rebuilt < report.catalogs_total  # local rebuild

    def test_unaffected_leaf_uses_cache(self):
        tree, __, __rng = build(n=2_000, capacity=64)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        far = tree.leaf_for(Point(90.0, 90.0)).rect.as_tuple()
        before = maintained.catalog_entries()[far]
        tree.insert(5.0, 5.0)  # far away from that leaf
        assert maintained.refresh_incremental().catalogs_reused > 0
        after = maintained.catalog_entries()[far]
        assert after[0] is before[0] and after[1] is before[1]  # kept, not rebuilt
        # Nothing mutated since: nothing is near anything.
        assert maintained.refresh_incremental().catalogs_rebuilt == 0


class TestValidation:
    def test_rejects_bad_max_k(self):
        tree, __, __rng = build(n=10)
        with pytest.raises(ValueError):
            MaintainedStaircaseEstimator(tree, max_k=0)

    def test_rejects_k_zero(self):
        tree, __, __rng = build(n=10)
        with pytest.raises(ValueError):
            MaintainedStaircaseEstimator(tree, max_k=8).estimate(Point(1, 1), 0)

    def test_empty_index(self):
        tree = MutableQuadtree(bounds=Rect(0, 0, 1, 1), capacity=4)
        maintained = MaintainedStaircaseEstimator(tree, max_k=8)
        assert maintained.estimate(Point(0.5, 0.5), 3) == 0.0

    def test_out_of_bounds_query(self):
        tree, __, __rng = build(n=500, capacity=32)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        assert maintained.estimate(Point(-5.0, -5.0), 4) >= 1.0


class TestStaleTrackingRegressions:
    """Regression tests for the two stale-tracking bugs this PR fixes."""

    def test_dead_leaf_catalogs_evicted(self):
        """Splits and merges kill leaf regions; their cached catalogs
        must be evicted, not leaked (pre-fix, dead keys accumulated
        forever and could even serve a query whose focal point re-landed
        in a recreated region of the same bounds).  The dirty log alone
        says where: a split notes the leaf it kills and a merge the
        parent that absorbs the dead children, and the refresh splices
        what is under those regions now — the table equals a gather."""
        tree, __, __rng = build(n=200, capacity=8)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        maintained.refresh_incremental()  # cache every live leaf
        rng = np.random.default_rng(2)
        # Dense pile in one corner forces splits (old leaf dies); then
        # delete the pile to force merges (children die).
        pile = [
            (float(5 + rng.uniform(0, 2)), float(5 + rng.uniform(0, 2)))
            for __ in range(100)
        ]
        for x, y in pile:
            tree.insert(x, y)
        maintained.refresh_incremental()
        assert_matches_gather(maintained, tree)
        live = {leaf.rect.as_tuple() for leaf in tree.leaves}
        assert set(maintained.catalog_entries()) == live
        evicted_by_splits = maintained.evictions
        assert evicted_by_splits > 0
        for x, y in pile:
            tree.delete(x, y)
        maintained.refresh_incremental()
        assert_matches_gather(maintained, tree)
        live = {leaf.rect.as_tuple() for leaf in tree.leaves}
        assert set(maintained.catalog_entries()) == live
        assert maintained.evictions > evicted_by_splits

    def test_external_clear_dirty_does_not_serve_stale(self):
        """An external ``clear_dirty()`` prunes the update log past the
        estimator's watermark.  Pre-fix the estimator treated 'no log
        entries' as 'nothing changed' and kept serving dead catalogs;
        now it detects the pruned history and conservatively drops its
        cache, so the next estimate is rebuilt fresh."""
        tree, __, __rng = build(n=500, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        q = Point(50.0, 50.0)
        maintained.estimate(q, 8)  # warm the leaf
        tree.clear_dirty()  # external log pruning, e.g. another consumer
        rng = np.random.default_rng(4)
        for __ in range(30):
            tree.insert(
                float(50 + rng.normal() * 0.3), float(50 + rng.normal() * 0.3)
            )
        tree.clear_dirty()  # prune again: the mutations left no log
        got = maintained.estimate(q, 8)
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=16)
        assert got == fresh.estimate(q, 8)

    def test_estimator_never_consumes_the_log(self):
        """Maintenance must read the update log without truncating it —
        other consumers share it."""
        tree, __, __rng = build(n=300, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        maintained.refresh_incremental()
        floor_before = tree.log_floor
        tree.insert(10.0, 10.0)
        generation = tree.data_generation
        maintained.refresh_incremental()
        maintained.estimate(Point(10.0, 10.0), 4)
        assert tree.log_floor == floor_before
        bounds, gens = tree.dirty_region_items_since(generation - 1)
        assert bounds.shape[0] >= 1  # the insert is still in the log


class TestDriftQuantified:
    def test_error_drops_after_refresh(self):
        """Incremental refreshes track concentrated growth as well as a
        forced full rebuild does."""
        tree, __, __rng = build(n=1_000, capacity=32)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        rng = np.random.default_rng(7)
        queries = [
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for __ in range(15)
        ]
        # Concentrated growth invalidates the old global picture.
        for __ in range(800):
            tree.insert(float(rng.uniform(40, 60)), float(rng.uniform(40, 60)))

        def mean_error() -> float:
            errors = []
            for q in queries:
                actual = select_cost(tree, q, 16)
                errors.append(abs(maintained.estimate(q, 16) - actual) / max(actual, 1))
            return float(np.mean(errors))

        # NB: leaf-level dirtiness already fixes the mutated area; the
        # full rebuild is bit-identical, so it cannot change the error.
        incremental_error = mean_error()
        maintained.refresh_incremental(full=True)
        assert mean_error() == incremental_error
