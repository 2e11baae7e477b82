"""Acceptance suite: incremental maintenance is bit-for-bit exact.

The contract of ``refresh_incremental()`` is that after arbitrary
insert/delete churn, every catalog it kept *or* rebuilt is
byte-identical to the one a from-scratch estimator would build over the
mutated index — reuse is an optimization, never an approximation.  One
test body drives randomized seeded churn through each catalog technique
(Staircase, Catalog-Merge, Virtual-Grid) at leaf capacities 1/4/32 and
compares the refreshed estimator's persisted bytes against a fresh
build's, through the public surface only (``to_store()``,
``catalog_entries()``, ``estimate``).

Each technique also asserts reuse actually happened under localized
churn (otherwise "incremental" silently degrades to full rebuilds);
the Staircase suite also replays the benchmark's moving-hotspot churn
workload in both refresh modes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.estimators import (
    CatalogMergeEstimator,
    MaintainedStaircaseEstimator,
    StaircaseEstimator,
    VirtualGridEstimator,
)
from repro.geometry import Point, Rect
from repro.index import MutableQuadtree
from repro.resilience.errors import StaleCatalogError
from repro.workloads import churn_phases, run_churn

BOUNDS = Rect(0.0, 0.0, 100.0, 100.0)


def make_tree(n=1_500, seed=0, capacity=32) -> tuple[MutableQuadtree, np.ndarray]:
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 100.0, size=(n, 2))
    return MutableQuadtree(pts, bounds=BOUNDS, capacity=capacity), pts


def apply_churn(tree: MutableQuadtree, rng, *, inserts: int, deletes: int,
                center=(50.0, 50.0), sigma=30.0) -> None:
    """Randomized churn: Gaussian inserts around ``center``, deletes of
    random points sampled from the live blocks."""
    for __ in range(inserts):
        x = float(np.clip(rng.normal(center[0], sigma), 0.0, 100.0))
        y = float(np.clip(rng.normal(center[1], sigma), 0.0, 100.0))
        tree.insert(x, y)
    for __ in range(deletes):
        blocks = [b for b in tree.blocks if len(b.points) > 0]
        if not blocks:
            break
        block = blocks[int(rng.integers(len(blocks)))]
        victim = block.points[int(rng.integers(len(block.points)))]
        tree.delete(float(victim[0]), float(victim[1]))


CAPACITIES = pytest.mark.parametrize("capacity", [1, 4, 32])


class _RefreshedEqualsFresh:
    """Churn → ``refresh_incremental()`` → compare with a fresh build.

    The one test body of the technique × capacity matrix.  Subclasses
    name the technique by implementing :meth:`build`, which constructs
    the estimator over the (current) tree exactly as a from-scratch
    build would, and run the body under their historical test name.
    """

    def build(self, tree: MutableQuadtree):
        raise NotImplementedError

    def check_identical_after_churn(self, capacity):
        tree, __ = make_tree(n=400 if capacity == 1 else 1_000, capacity=capacity)
        maintained = self.build(tree)
        rng = np.random.default_rng(42)
        for round_ in range(3):
            apply_churn(
                tree, rng, inserts=40, deletes=20,
                center=(20.0 + 30.0 * round_, 50.0), sigma=8.0,
            )
            report = maintained.refresh_incremental()
            assert report.mode == "incremental"
            assert report.generation == tree.data_generation
            assert report.catalogs_rebuilt + report.catalogs_reused == report.catalogs_total
            fresh = self.build(tree)
            assert maintained.to_store().to_bytes() == fresh.to_store().to_bytes()
            self.check_public_state(tree, maintained, fresh)

    def check_public_state(self, tree, maintained, fresh) -> None:
        """Technique-specific comparisons beyond the persisted bytes."""


class TestStaircaseEquivalence(_RefreshedEqualsFresh):
    def build(self, tree):
        return StaircaseEstimator(tree, aux_index=tree, max_k=32)

    @CAPACITIES
    def test_catalogs_identical_after_churn(self, capacity):
        self.check_identical_after_churn(capacity)

    def check_public_state(self, tree, maintained, fresh) -> None:
        got = maintained.catalog_entries()
        assert got == fresh.catalog_entries()
        assert set(got) == {leaf.rect.as_tuple() for leaf in tree.leaves}

    def test_reuse_happens_under_localized_churn(self):
        tree, __ = make_tree(n=2_000, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        rng = np.random.default_rng(3)
        apply_churn(tree, rng, inserts=15, deletes=0, center=(10.0, 10.0), sigma=1.0)
        report = maintained.refresh_incremental()
        assert report.mode == "incremental"
        assert report.catalogs_reused > 0
        assert report.catalogs_rebuilt + report.catalogs_reused == report.catalogs_total
        assert 0.0 < report.rebuild_ratio < 1.0

    def test_full_flag_rebuilds_everything(self):
        tree, __ = make_tree(n=500, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        report = maintained.refresh_incremental(full=True)
        assert report.mode == "full"
        assert report.catalogs_reused == 0
        assert report.catalogs_rebuilt == report.catalogs_total

    def test_churn_replay_incremental_serves_what_full_rebuilds_serve(self):
        """The moving-hotspot replay (``repro.workloads.run_churn``): same
        estimates phase for phase, strictly fewer catalogs rebuilt."""
        __, pts = make_tree(n=2_000)
        phases = churn_phases(
            pts, BOUNDS, phases=4, inserts_per_phase=60, deletes_per_phase=30,
            queries_per_phase=20, max_k=32, hotspot_fraction=0.9, seed=7,
        )
        reports = {}
        for mode in ("incremental", "full"):
            tree = MutableQuadtree(pts, bounds=BOUNDS, capacity=16)
            maintained = MaintainedStaircaseEstimator(tree, max_k=32)
            reports[mode] = run_churn(tree, maintained, phases, mode=mode)
        incremental, full = reports["incremental"], reports["full"]
        assert incremental.n_queries == full.n_queries == 80
        assert np.array_equal(incremental.estimates, full.estimates)
        assert incremental.catalogs_rebuilt < full.catalogs_rebuilt == full.catalogs_total
        assert 0.0 < incremental.rebuild_ratio < full.rebuild_ratio == 1.0

    def test_lazy_estimate_path_matches_fresh(self):
        """``estimate`` with no explicit refresh reconciles on demand."""
        tree, __ = make_tree(n=1_200, capacity=32)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        rng = np.random.default_rng(9)
        queries = [
            Point(float(rng.uniform(0, 100)), float(rng.uniform(0, 100)))
            for __ in range(25)
        ]
        apply_churn(tree, rng, inserts=30, deletes=15, center=(70.0, 30.0), sigma=5.0)
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=32)
        for q in queries:
            k = int(rng.integers(1, 33))
            assert maintained.estimate(q, k) == fresh.estimate(q, k)

    def test_scalar_estimates_bit_equal_to_plain_estimator(self):
        """The 1-ulp regression: a maintained estimate *is* a plain one.

        The former shadow class interpolated through ``math.hypot`` where
        the plain estimator uses libm ``np.hypot``; 6 of these 5,000
        estimates differed in the last bit.
        """
        tree, __ = make_tree(n=1_500, seed=0, capacity=32)
        maintained = MaintainedStaircaseEstimator(tree, max_k=32)
        rng = np.random.default_rng(0)
        apply_churn(tree, rng, inserts=60, deletes=30, center=(40.0, 60.0), sigma=10.0)
        plain = StaircaseEstimator(tree, aux_index=tree, max_k=32)
        qs = rng.uniform(0.0, 100.0, size=(5_000, 2))
        ks = rng.integers(1, 33, size=5_000)
        scalar = [
            maintained.estimate(Point(float(x), float(y)), int(k))
            for (x, y), k in zip(qs, ks)
        ]
        assert scalar == [
            plain.estimate(Point(float(x), float(y)), int(k)) for (x, y), k in zip(qs, ks)
        ]
        assert maintained.estimate_batch(qs, ks).tolist() == scalar


class TestFallbackAndPersistence:
    """Edge cases the fold fixes: fallback routes, restored stores, no log."""

    def test_fallback_routes_match_fresh_build_after_churn(self):
        tree, __ = make_tree(n=1_000, capacity=16)
        maintained = MaintainedStaircaseEstimator(tree, max_k=16)
        apply_churn(tree, np.random.default_rng(5), inserts=50, deletes=25)
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=16)
        outside, inside = Point(-20.0, 130.0), Point(40.0, 40.0)
        assert maintained.estimate(outside, 4) == fresh.estimate(outside, 4)
        assert maintained.estimate(inside, 64) == fresh.estimate(inside, 64)  # k > max_k
        pts = np.array([[-20.0, 130.0], [40.0, 40.0]])
        assert (
            maintained.estimate_batch(pts, [4, 64]).tolist()
            == fresh.estimate_batch(pts, [4, 64]).tolist()
        )

    def test_restored_estimator_rebuilds_everything_on_first_refresh(self):
        """A store records no coverage radii, so they read as ∞."""
        tree, __ = make_tree(n=1_000, capacity=16)
        built = StaircaseEstimator(tree, aux_index=tree, max_k=16)
        restored = StaircaseEstimator.from_store(tree, built.to_store(), aux_index=tree)
        tree.insert(1.0, 1.0)  # far from almost every leaf
        assert built.refresh_incremental().catalogs_reused > 0
        report = restored.refresh_incremental()
        assert report.catalogs_rebuilt == report.catalogs_total
        assert restored.to_store().to_bytes() == built.to_store().to_bytes()

    def test_index_without_update_log_degrades_to_full_rebuild(self):
        class NoLog:
            """The tree minus its update-log API."""

            def __init__(self, tree):
                self._tree = tree

            def __getattr__(self, name):
                if name in ("dirty_region_items_since", "log_floor"):
                    raise AttributeError(name)
                return getattr(self._tree, name)

        tree, __ = make_tree(n=600, capacity=16)
        estimator = StaircaseEstimator(NoLog(tree), aux_index=tree, max_k=16)
        tree.insert(1.0, 1.0)
        with pytest.raises(StaleCatalogError):
            estimator.estimate(Point(50.0, 50.0), 4)  # plain estimators never self-refresh
        report = estimator.refresh_incremental()
        assert report.catalogs_rebuilt == report.catalogs_total
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=16)
        assert estimator.to_store().to_bytes() == fresh.to_store().to_bytes()


class TestCatalogMergeEquivalence(_RefreshedEqualsFresh):
    def setup_method(self):
        # The outer relation stays fixed; the churned tree is the inner.
        self.outer_tree, __ = make_tree(n=800, seed=1, capacity=32)

    def build(self, inner_tree):
        return CatalogMergeEstimator(
            self.outer_tree, inner_tree, sample_size=50, max_k=32
        )

    @CAPACITIES
    def test_merged_catalog_identical_after_churn(self, capacity):
        self.check_identical_after_churn(capacity)

    def check_public_state(self, tree, maintained, fresh) -> None:
        assert maintained.catalog == fresh.catalog
        assert maintained.estimate(16) == fresh.estimate(16)

    def test_temporaries_reused_under_localized_churn(self):
        outer_tree, __ = make_tree(n=800, seed=1, capacity=32)
        inner_tree, __ = make_tree(n=1_500, seed=2, capacity=16)
        maintained = CatalogMergeEstimator(
            outer_tree, inner_tree, sample_size=60, max_k=8
        )
        rng = np.random.default_rng(23)
        apply_churn(inner_tree, rng, inserts=10, deletes=0,
                    center=(5.0, 95.0), sigma=1.0)
        report = maintained.refresh_incremental()
        assert report.catalogs_reused > 0

    def test_outer_churn_refreshes_sample(self):
        outer_tree, __ = make_tree(n=600, seed=4, capacity=32)
        inner_tree, __ = make_tree(n=900, seed=5, capacity=32)
        maintained = CatalogMergeEstimator(
            outer_tree, inner_tree, sample_size=40, max_k=16
        )
        rng = np.random.default_rng(31)
        apply_churn(outer_tree, rng, inserts=50, deletes=25)
        maintained.refresh_incremental()
        fresh = CatalogMergeEstimator(
            outer_tree, inner_tree, sample_size=40, max_k=16
        )
        assert maintained.estimate(8) == fresh.estimate(8)
        assert maintained.catalog == fresh.catalog


class TestVirtualGridEquivalence(_RefreshedEqualsFresh):
    def build(self, inner_tree):
        return VirtualGridEstimator(inner_tree, BOUNDS, grid_size=8, max_k=32)

    @CAPACITIES
    def test_cell_catalogs_identical_after_churn(self, capacity):
        self.check_identical_after_churn(capacity)

    def check_public_state(self, tree, maintained, fresh) -> None:
        outer_tree, __ = make_tree(n=500, seed=11, capacity=32)
        assert maintained.estimate(outer_tree, 8) == fresh.estimate(outer_tree, 8)
        for i in range(8 * 8):
            assert maintained.cell_catalog(i) == fresh.cell_catalog(i), i

    def test_cells_reused_under_localized_churn(self):
        inner_tree, __ = make_tree(n=1_500, seed=8, capacity=16)
        maintained = VirtualGridEstimator(inner_tree, BOUNDS, grid_size=8, max_k=8)
        rng = np.random.default_rng(19)
        apply_churn(inner_tree, rng, inserts=10, deletes=0,
                    center=(90.0, 90.0), sigma=1.0)
        report = maintained.refresh_incremental()
        assert report.catalogs_reused > 0
