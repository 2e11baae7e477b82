"""The home-leaf locator, the stacked catalogs and the batched join sample.

Everything here is a count or a bit-equality against the passes these
structures replaced (``tests/reference_builds.py``); nothing compares
wall-clock.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.catalog.intervals as intervals
import repro.index.locator as locator_module
from repro.catalog import CatalogLookupError
from repro.datasets import generate_osm_like, generate_uniform
from repro.engine import KnnJoinQuery, SpatialEngine
from repro.engine import planner
from repro.engine.planner import per_point_selects_cost
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.estimators.staircase import MaintainedStaircaseEstimator, StaircaseEstimator
from repro.geometry import Point, Rect
from repro.geometry.hilbert import hilbert_order
from repro.index import (
    BlockLocator,
    GridIndex,
    IndexSnapshot,
    MutableQuadtree,
    Quadtree,
    RTree,
    partition_bounds,
)
from repro.resilience.faultinject import (
    FaultInjectingSelectEstimator,
    FaultSchedule,
    FaultSpec,
)
from repro.serving.shards import plan_shards
from repro.workloads import churn_phases, run_churn
from tests import reference_builds
from tests.reference_builds import leaf_ids_for_points

UNIVERSE = Rect(0.0, 0.0, 64.0, 64.0)


# ----------------------------------------------------------------------
# (a) locator.home == the all-rects pass, on every substrate
# ----------------------------------------------------------------------
def _churned(points: np.ndarray) -> MutableQuadtree:
    """A mutable quadtree that has split and merged leaves."""
    tree = MutableQuadtree(points, bounds=UNIVERSE, capacity=4)
    for x, y in points[::2].tolist():
        tree.delete(x, y)
    for x, y in (points[1::3] * 0.5).tolist():
        tree.insert(x, y)
    return tree


SUBSTRATES = {
    "quadtree": lambda pts: Quadtree(pts, bounds=UNIVERSE, capacity=4),
    "grid": lambda pts: GridIndex(pts, bounds=UNIVERSE, nx=5, ny=3),
    "rtree": lambda pts: RTree(pts, capacity=4),
    "churned": _churned,
}


def _probes(rects: np.ndarray, bounds: tuple, extra: np.ndarray) -> np.ndarray:
    """Edge, corner, one-ulp, universe-edge and outside probes of ``rects``."""
    x0, y0, x1, y1 = bounds
    xs = np.unique(np.concatenate([rects[:, 0], rects[:, 2], [x0, x1, (x0 + x1) / 2]]))
    ys = np.unique(np.concatenate([rects[:, 1], rects[:, 3], [y0, y1, (y0 + y1) / 2]]))
    xs = np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)])
    ys = np.concatenate([ys, np.nextafter(ys, -np.inf), np.nextafter(ys, np.inf)])
    rng = np.random.default_rng(rects.shape[0])
    lattice = np.column_stack(
        [rng.choice(xs, size=4 * xs.shape[0]), rng.choice(ys, size=4 * xs.shape[0])]
    )
    outside = np.array([[x0 - 1.0, y0], [x1 + 1.0, y1], [x0, y1 + 1.0], [np.inf, y0]])
    return np.concatenate([lattice, outside, extra.reshape(-1, 2)])


def _assert_locates_like_the_full_pass(rects: np.ndarray, bounds: tuple, probes: np.ndarray):
    locator = BlockLocator(rects, bounds)
    expected = leaf_ids_for_points(rects, probes[:, 0], probes[:, 1], bounds)
    assert np.array_equal(locator.home(probes[:, 0], probes[:, 1]), expected)
    assert [locator.home_of(x, y) for x, y in probes.tolist()] == expected.tolist()
    # The reported work is the bucket the point falls in, never more
    # than all rects, and large enough to hold the answer.
    examined = locator.candidates(probes[:, 0], probes[:, 1])
    assert np.all(examined[expected >= 0] >= 1)
    assert np.all(examined <= rects.shape[0])


small_points = st.lists(
    st.tuples(
        st.floats(0.0, 64.0, allow_nan=False, width=32),
        st.floats(0.0, 64.0, allow_nan=False, width=32),
    ),
    min_size=1,
    max_size=60,
).map(lambda rows: np.array(rows, dtype=float))


class TestLocatorEqualsTheFullPass:
    @settings(max_examples=40, deadline=None)
    @given(small_points, st.sampled_from(sorted(SUBSTRATES)))
    def test_block_rects_of_every_substrate(self, pts, substrate):
        index = SUBSTRATES[substrate](pts)
        snapshot = IndexSnapshot.from_index(index)
        # Non-empty blocks only: in-universe points in no block map to -1.
        probes = _probes(snapshot.rects, snapshot.bounds, pts)
        _assert_locates_like_the_full_pass(snapshot.rects, snapshot.bounds, probes)
        expected = leaf_ids_for_points(
            snapshot.rects, probes[:, 0], probes[:, 1], snapshot.bounds
        )
        assert np.array_equal(snapshot.leaf_ids_for_points(probes), expected)

    @settings(max_examples=30, deadline=None)
    @given(small_points, st.sampled_from(sorted(SUBSTRATES)), st.integers(0, 2**32 - 1))
    def test_home_loops_home_of_up_to_the_cut_and_agrees_past_it(self, pts, substrate, seed):
        index = SUBSTRATES[substrate](pts)
        snapshot = IndexSnapshot.from_index(index)
        x0, y0, x1, y1 = snapshot.bounds
        # NaN, the universe's corners, and just outside it.
        odd = np.array(
            [[np.nan, y0], [x0, np.nan], [x1, y1], [x0, y1], [x1, y0], [x0 - 1e-9, y0], [x1, y1 + 1]]
        )
        probes = np.concatenate([_probes(snapshot.rects, snapshot.bounds, pts), odd])
        locator = BlockLocator(snapshot.rects, snapshot.bounds)
        rng = np.random.default_rng(seed)
        cut = locator_module._SMALL_BATCH
        for size in (1, 2, cut, cut + 1, 2 * cut):
            pick = probes[rng.choice(probes.shape[0], size)]
            expected = [locator.home_of(x, y) for x, y in pick.tolist()]
            assert locator.home(pick[:, 0], pick[:, 1]).tolist() == expected
            full = leaf_ids_for_points(snapshot.rects, pick[:, 0], pick[:, 1], snapshot.bounds)
            assert full.tolist() == expected

    @settings(max_examples=25, deadline=None)
    @given(small_points, st.sampled_from(["quadtree", "churned"]))
    def test_partition_leaves_including_empty_ones(self, pts, substrate):
        index = SUBSTRATES[substrate](pts)
        rects = partition_bounds(index)
        bounds = index.bounds.as_tuple()
        probes = _probes(rects, bounds, pts)
        _assert_locates_like_the_full_pass(rects, bounds, probes)
        inside = [
            (x, y)
            for x, y in probes.tolist()
            if bounds[0] <= x <= bounds[2] and bounds[1] <= y <= bounds[3]
        ]
        locator = BlockLocator(rects, bounds)
        for x, y in inside[:40]:
            assert index.leaves[locator.home_of(x, y)] is index.leaf_for(Point(x, y))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(*[st.integers(-2, 18)] * 4), min_size=0, max_size=24
        ),
        st.integers(0, 2**16),
    )
    def test_overlapping_degenerate_and_overhanging_rects(self, corners, seed):
        # Arbitrary rects on a small lattice: they overlap (first
        # canonical hit wins), collapse to segments and points
        # (zero-area), stick out of the universe, and leave holes.
        rects = np.array(
            [[min(a, c), min(b, d), max(a, c), max(b, d)] for a, b, c, d in corners],
            dtype=float,
        ).reshape(-1, 4)
        bounds = (0.0, 0.0, 16.0, 16.0)
        rng = np.random.default_rng(seed)
        extra = rng.integers(-1, 18, size=(60, 2)).astype(float)
        _assert_locates_like_the_full_pass(rects, bounds, _probes(rects, bounds, extra))

    def test_empty_and_single_rect(self):
        probes = np.array([[0.0, 0.0], [1.0, 1.0], [0.5, 2.0], [0.5, 0.5]])
        for rects in (np.empty((0, 4)), np.array([[0.0, 0.0, 1.0, 1.0]])):
            _assert_locates_like_the_full_pass(rects, (0.0, 0.0, 1.0, 1.0), probes)
        empty = IndexSnapshot.from_arrays(np.empty((0, 4)), np.empty(0, dtype=np.int64))
        assert empty.leaf_ids_for_points(probes).tolist() == [-1] * 4

    def test_snapshot_without_recorded_bounds_uses_the_hull(self, osm_quadtree):
        full = IndexSnapshot.from_index(osm_quadtree)
        bare = IndexSnapshot.from_arrays(full.rects, full.counts)
        assert bare.bounds is None
        hull = (
            float(full.rects[:, 0].min()),
            float(full.rects[:, 1].min()),
            float(full.rects[:, 2].max()),
            float(full.rects[:, 3].max()),
        )
        probes = _probes(full.rects[:40], hull, np.empty((0, 2)))
        assert np.array_equal(
            bare.leaf_ids_for_points(probes),
            leaf_ids_for_points(full.rects, probes[:, 0], probes[:, 1], hull),
        )

    def test_hilbert_layout_returns_physical_rows_of_the_canonical_hit(self):
        # R-tree MBRs over lattice points share edges, so several
        # contain an edge probe and the canonical first hit matters.
        index = RTree(generate_uniform(400, seed=5).round(-1), capacity=8)
        snapshot = IndexSnapshot.from_index(index)
        layout = snapshot.with_layout(hilbert_order(snapshot.centers, snapshot.bounds))
        probes = _probes(snapshot.rects, snapshot.bounds, np.empty((0, 2)))
        canonical = leaf_ids_for_points(
            snapshot.rects, probes[:, 0], probes[:, 1], snapshot.bounds
        )
        rows = layout.leaf_ids_for_points(probes)
        hit = canonical >= 0
        assert hit.any() and not hit.all()
        assert np.array_equal(rows >= 0, hit)
        assert np.array_equal(layout.block_ids[rows[hit]], snapshot.block_ids[canonical[hit]])

    def test_a_pickled_snapshot_does_not_carry_its_locator(self, osm_quadtree):
        import pickle

        snapshot = IndexSnapshot.from_index(osm_quadtree)
        cold = len(pickle.dumps(snapshot))
        snapshot.leaf_ids_for_points(np.array([[1.0, 1.0]]))
        assert len(pickle.dumps(snapshot)) == cold

    def test_shard_routing_equals_the_full_pass(self, osm_quadtree):
        snapshot = IndexSnapshot.from_index(osm_quadtree)
        for n_shards in (1, 2, 5, 8):
            plan = plan_shards(snapshot, n_shards)
            probes = _probes(plan.rects, plan.bounds, snapshot.centers[:50])
            inside = leaf_ids_for_points(plan.rects, probes[:, 0], probes[:, 1], plan.bounds)
            routed = plan.assign(probes)
            assert np.array_equal(routed[inside >= 0], inside[inside >= 0])
            assert np.all(routed >= 0) and np.all(routed < n_shards)


# ----------------------------------------------------------------------
# (b) work proportional to what a query touches, as exact counts
# ----------------------------------------------------------------------
class TestWorkIsProportionalToTouched:
    def test_candidates_per_data_distributed_point(self):
        points = generate_osm_like(60_000, seed=3)
        probes = points[np.random.default_rng(0).integers(0, points.shape[0], 4_096)]
        means = {}
        for capacity in (64, 16):  # the second tree has ~4x the leaves
            tree = Quadtree(points, capacity=capacity)
            rects = partition_bounds(tree)
            locator = BlockLocator(rects, tree.bounds.as_tuple())
            examined = locator.candidates(probes[:, 0], probes[:, 1])
            means[rects.shape[0]] = float(examined.mean())
        small, large = sorted(means)
        assert large > 3 * small
        assert means[small] <= 40 and means[large] <= 40, means

    def test_batch_gathers_do_not_grow_with_distinct_leaves(self, osm_quadtree, monkeypatch):
        estimator = StaircaseEstimator(osm_quadtree, max_k=64)
        rects = partition_bounds(osm_quadtree)
        centers = (rects[:, :2] + rects[:, 2:]) / 2.0
        spread = centers[:64]
        packed = np.repeat(centers[:1], 64, axis=0) + np.linspace(0.0, 1e-3, 64)[:, None]
        ks = np.arange(1, 65)
        locator, __ = estimator._home_leaves()
        assert np.unique(locator.home(spread[:, 0], spread[:, 1])).shape[0] == 64
        assert np.unique(locator.home(packed[:, 0], packed[:, 1])).shape[0] == 1

        calls = {"gather": 0, "locate": 0}
        gather, home = intervals.interval_gather, BlockLocator.home

        def counting_gather(*args):
            calls["gather"] += 1
            return gather(*args)

        def counting_home(self, xs, ys):
            calls["locate"] += 1
            return home(self, xs, ys)

        monkeypatch.setattr(intervals, "interval_gather", counting_gather)
        monkeypatch.setattr(BlockLocator, "home", counting_home)
        counted = []
        for pts in (spread, packed):
            calls.update(gather=0, locate=0)
            estimator.estimate_batch(pts, ks)
            counted.append(dict(calls))
        assert counted[0] == counted[1] == {"gather": 2, "locate": 1}
        calls.update(gather=0, locate=0)
        estimator.estimate_batch(spread, ks, variant="center")
        assert calls == {"gather": 1, "locate": 1}


# ----------------------------------------------------------------------
# (c) estimate_batch[i] == estimate(i), bit for bit
# ----------------------------------------------------------------------
class _Leaf:
    def __init__(self, rect: Rect) -> None:
        self.rect = rect


class _Partition:
    """A hand-made auxiliary index: just leaf rects and a universe."""

    def __init__(self, rects: list[tuple], bounds: Rect) -> None:
        self.leaves = [_Leaf(Rect(*r)) for r in rects]
        self.bounds = bounds


@pytest.fixture(scope="module")
def mixed_batch(osm_points):
    """In-universe rows, rows past ``max_k`` and out-of-universe rows."""
    rng = np.random.default_rng(9)
    pts = osm_points[rng.integers(0, osm_points.shape[0], 200)].copy()
    ks = rng.integers(1, 65, size=200)
    ks[::17] = 65 + rng.integers(0, 500, size=ks[::17].shape[0])
    pts[5::23] += 5_000.0
    return pts, ks


class TestBatchEqualsScalarBitwise:
    @pytest.mark.parametrize("built", ["center+corners", "center"])
    def test_every_variant_and_route(self, osm_quadtree, mixed_batch, built):
        pts, ks = mixed_batch
        estimator = StaircaseEstimator(osm_quadtree, max_k=64, variant=built)
        served = ("center+corners", "center") if built == "center+corners" else ("center",)
        for variant in served:
            batch = estimator.estimate_batch(pts, ks, variant=variant)
            scalar = [
                estimator.estimate(Point(x, y), int(k), variant=variant)
                for (x, y), k in zip(pts.tolist(), ks.tolist())
            ]
            assert batch.tolist() == scalar
            oracle = reference_builds.staircase_estimate_batch(estimator, pts, ks, variant)
            assert batch.tolist() == oracle.tolist()

    def test_rtree_data_index_with_a_quadtree_partition(self, osm_points, mixed_batch):
        pts, ks = mixed_batch
        data = RTree(osm_points, capacity=64)
        aux = Quadtree(osm_points, capacity=128)
        estimator = StaircaseEstimator(data, aux_index=aux, max_k=64)
        batch = estimator.estimate_batch(pts, ks)
        assert batch.tolist() == [
            estimator.estimate(Point(x, y), int(k)) for (x, y), k in zip(pts.tolist(), ks.tolist())
        ]
        assert batch.tolist() == reference_builds.staircase_estimate_batch(
            estimator, pts, ks
        ).tolist()

    def test_zero_diagonal_leaf_pins_the_center_cost(self, osm_quadtree):
        bounds = osm_quadtree.bounds
        east, north = bounds.x_max, bounds.y_max
        # A point-sized leaf on the universe's corner, listed first so it
        # is the canonical hit there; one leaf for everything else.
        aux = _Partition([(east, north, east, north), bounds.as_tuple()], bounds)
        estimator = StaircaseEstimator(osm_quadtree, aux_index=aux, max_k=32)
        pts = np.array([[east, north], [bounds.x_min, bounds.y_min], [east, bounds.y_min]])
        ks = np.array([7, 7, 30])
        batch = estimator.estimate_batch(pts, ks)
        assert batch[0] == estimator._center_catalogs[0].lookup(7)
        assert batch.tolist() == [
            estimator.estimate(Point(x, y), int(k)) for (x, y), k in zip(pts.tolist(), ks.tolist())
        ]
        assert batch.tolist() == reference_builds.staircase_estimate_batch(
            estimator, pts, ks
        ).tolist()

    def test_in_universe_point_in_no_leaf_raises_the_first_offender(self, osm_quadtree):
        b = osm_quadtree.bounds
        mid = (b.x_min + b.x_max) / 2.0
        aux = _Partition([(b.x_min, b.y_min, mid, b.y_max)], b)  # west half only
        estimator = StaircaseEstimator(osm_quadtree, aux_index=aux, max_k=16)
        pts = np.array(
            [[b.x_min + 1.0, b.y_min + 1.0], [mid + 2.0, b.y_min + 3.0], [mid + 4.0, b.y_min]]
        )
        ks = np.array([3, 3, 3])
        with pytest.raises(ValueError) as batch_error:
            estimator.estimate_batch(pts, ks)
        with pytest.raises(ValueError) as oracle_error:
            reference_builds.staircase_estimate_batch(estimator, pts, ks)
        with pytest.raises(ValueError) as scalar_error:
            estimator.estimate(Point(*pts[1]), 3)
        assert "no partition leaf contains" in str(batch_error.value)
        assert str(batch_error.value) == str(oracle_error.value) == str(scalar_error.value)

    @pytest.mark.parametrize("damaged", ["center/3", "corners/3", "corners/1"])
    def test_short_catalog_raises_the_first_offender(self, osm_quadtree, damaged):
        store = StaircaseEstimator(osm_quadtree, max_k=64).to_store()
        store.put(damaged, store.get(damaged).truncated(5))
        estimator = StaircaseEstimator.from_store(osm_quadtree, store)
        rects = partition_bounds(osm_quadtree)
        centers = (rects[:, :2] + rects[:, 2:]) / 2.0
        pts = centers[[6, 3, 1, 3, 1, 0]]
        ks = np.array([40, 9, 12, 60, 3, 64])
        with pytest.raises(CatalogLookupError) as batch_error:
            estimator.estimate_batch(pts, ks)
        with pytest.raises(CatalogLookupError) as oracle_error:
            reference_builds.staircase_estimate_batch(estimator, pts, ks)
        assert str(batch_error.value) == str(oracle_error.value)
        # Rows the damage does not reach are still served.
        assert estimator.estimate_batch(pts[[0, 5]], ks[[0, 5]]).tolist() == [
            estimator.estimate(Point(*pts[0]), 40),
            estimator.estimate(Point(*pts[5]), 64),
        ]

    def test_array_valued_interpolation_equals_per_leaf_calls(self):
        from repro.geometry.kernels import staircase_interpolate

        rng = np.random.default_rng(13)
        xs, ys = rng.uniform(-50, 50, size=(2, 90))
        c_center = rng.uniform(1, 40, size=90)
        c_corner = c_center + rng.uniform(0, 20, size=90)
        leaves = [(1.5, -2.5, 14.142135623730951), (7.0, 7.0, 0.0), (-3.0, 0.25, 1e-3)]
        which = rng.integers(0, 3, size=90)
        cx, cy, diagonal = np.array(leaves)[which].T
        together = staircase_interpolate(xs, ys, cx, cy, diagonal, c_center, c_corner)
        for leaf, (lx, ly, ld) in enumerate(leaves):
            rows = which == leaf
            alone = staircase_interpolate(
                xs[rows], ys[rows], lx, ly, ld, c_center[rows], c_corner[rows]
            )
            assert together[rows].tolist() == alone.tolist()
        assert together[which == 1].tolist() == c_center[which == 1].tolist()
        with pytest.raises(ValueError, match="scalars or share the batch length"):
            staircase_interpolate(xs, ys, cx[:5], cy, diagonal, c_center, c_corner)


# ----------------------------------------------------------------------
# (d) never stale: churn, refresh, persistence
# ----------------------------------------------------------------------
class TestLookupStructuresFollowTheTable:
    def test_refresh_after_splits_and_merges_equals_a_fresh_estimator(self):
        initial = generate_osm_like(800, seed=21)
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        tree = MutableQuadtree(initial, bounds=bounds, capacity=8)
        estimator = StaircaseEstimator(tree, aux_index=tree, max_k=32)
        probes = generate_osm_like(300, seed=22)
        ks = np.random.default_rng(23).integers(1, 33, size=300)
        estimator.estimate_batch(probes, ks)  # builds locator and columns
        estimator.estimate(Point(*probes[0]), 3)
        leaves_before = {tuple(row) for row in partition_bounds(tree).tolist()}
        phases = churn_phases(
            initial,
            bounds,
            phases=6,
            inserts_per_phase=60,
            deletes_per_phase=90,
            queries_per_phase=1,
            max_k=32,
            seed=24,
        )
        run_churn(tree, estimator, phases)
        leaves_after = {tuple(row) for row in partition_bounds(tree).tolist()}
        assert leaves_before - leaves_after and leaves_after - leaves_before
        assert not estimator.is_stale
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=32)
        for variant in ("center+corners", "center"):
            assert (
                estimator.estimate_batch(probes, ks, variant=variant).tolist()
                == fresh.estimate_batch(probes, ks, variant=variant).tolist()
            )
        assert [estimator.estimate(Point(x, y), 5) for x, y in probes[:40].tolist()] == [
            fresh.estimate(Point(x, y), 5) for x, y in probes[:40].tolist()
        ]

    def test_a_refresh_builds_nothing_until_an_estimate_asks(self):
        # A refresh keeps a locator that exists while no leaf split or
        # merged, refiles it when one did, and builds none that does
        # not exist; the stacked columns wait for the next batch.
        tree = MutableQuadtree(generate_uniform(200, seed=2), capacity=8)
        estimator = StaircaseEstimator(tree, aux_index=tree, max_k=8)
        assert estimator._leaf_lookup is None
        tree.insert(499.0, 499.0)
        estimator.refresh_incremental()
        assert estimator._leaf_lookup is None and estimator._stacked is None
        estimator.estimate_batch(np.array([[500.0, 500.0]]), 3)
        assert estimator._leaf_lookup is not None and estimator._stacked is not None
        lookup, leaves = estimator._leaf_lookup, len(tree.leaves)
        tree.insert(501.0, 501.0)
        estimator.refresh_incremental()
        assert len(tree.leaves) == leaves  # no split: the same locator
        assert estimator._leaf_lookup is lookup and estimator._stacked is None
        for __ in range(8):  # the leaf under (500, 500) splits
            tree.insert(500.5, 500.5)
        estimator.refresh_incremental()
        assert len(tree.leaves) > leaves
        assert estimator._leaf_lookup[0] is not lookup[0]
        fresh = BlockLocator(partition_bounds(tree), tree.bounds.as_tuple())
        assert estimator._leaf_lookup[0].home_of(500.5, 500.5) == fresh.home_of(500.5, 500.5)
        estimator.estimate(Point(500.0, 500.0), 3)
        assert estimator._stacked is None

    def test_the_spliced_locator_answers_like_a_fresh_one_over_a_hundred_phases(
        self, monkeypatch
    ):
        """Splits, merges and empty leaves: after every phase the locator
        the refresh refiled and the spliced geometry equal fresh ones,
        and no phase builds a locator."""
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        initial = generate_osm_like(400, seed=31)
        tree = MutableQuadtree(initial, bounds=bounds, capacity=4)
        estimator = MaintainedStaircaseEstimator(tree, max_k=16)
        phases = churn_phases(
            initial, bounds, phases=100, inserts_per_phase=4, deletes_per_phase=4,
            queries_per_phase=2, max_k=16, seed=32,
        )
        built = []
        init = BlockLocator.__init__

        def counting_init(self, rects, universe):
            built.append(1)
            init(self, rects, universe)

        rng = np.random.default_rng(33)
        probes = np.concatenate(
            [rng.uniform(0.0, 1000.0, size=(990, 2)), [[0.0, 0.0], [1000.0, 1000.0], [0.0, 1000.0],
             [1000.0, 0.0], [500.0, 500.0], [250.0, 750.0], [-1.0, 5.0], [5.0, 1000.5],
             [1000.0, 500.0], [500.0, 1000.0]]]
        )
        counts = [len(tree.leaves)]
        for phase in phases:
            for x, y in phase.inserts:
                tree.insert(float(x), float(y))
            for x, y in phase.deletes:
                tree.delete(float(x), float(y))
            monkeypatch.setattr(BlockLocator, "__init__", counting_init)
            for (x, y), k in zip(phase.queries.tolist(), phase.ks.tolist()):
                estimator.estimate(Point(x, y), int(k))
            monkeypatch.setattr(BlockLocator, "__init__", init)
            rects = partition_bounds(tree)
            counts.append(rects.shape[0])
            locator, geometry = estimator._leaf_lookup
            fresh = BlockLocator(rects, bounds.as_tuple())
            centers = (rects[:, :2] + rects[:, 2:]) / 2.0
            corners = rects[:, [0, 1, 2, 1, 0, 3, 2, 3]].reshape(-1, 2)
            points = np.concatenate([centers, corners, probes])
            xs, ys = points[:, 0], points[:, 1]
            assert locator.home(xs, ys).tolist() == fresh.home(xs, ys).tolist()
            assert [locator.home_of(x, y) for x, y in points.tolist()] == [
                fresh.home_of(x, y) for x, y in points.tolist()
            ]
            want = [[*Rect(*row).center.as_tuple(), Rect(*row).diagonal] for row in rects.tolist()]
            assert geometry.tolist() == want
        assert len(built) == 1
        steps = np.diff(counts)
        assert (steps > 0).sum() > 5 and (steps < 0).sum() > 5  # splits and merges
        assert any(len(leaf.points_list) == 0 for leaf in tree.leaves)

    def test_a_moving_hotspot_redraws_the_edges_once_a_bucket_doubles(self, monkeypatch):
        """200 phases of a growing moving-hotspot churn (10 inserts and 2
        deletes each, every insert in the hotspot) take the leaves from
        about 100 to 1,081.  Kept from the first phase, the edges would
        end with a 28-rect bucket where fresh ones hold 9; redrawn each
        time the longest bucket outgrows twice the one they were drawn
        with, no phase's longest bucket passes 18.  Counts, no clock."""
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        initial = generate_uniform(300, seed=41)
        tree = MutableQuadtree(initial, bounds=bounds, capacity=4)
        estimator = MaintainedStaircaseEstimator(tree, max_k=8)
        phases = churn_phases(
            initial, bounds, phases=200, inserts_per_phase=10, deletes_per_phase=2,
            queries_per_phase=1, max_k=8, hotspot_fraction=1.0, seed=42,
        )
        built, init = [], BlockLocator.__init__

        def counting_init(self, rects, universe):
            built.append(1)
            init(self, rects, universe)

        monkeypatch.setattr(BlockLocator, "__init__", counting_init)
        longest = []
        for phase in phases:
            for x, y in phase.inserts:
                tree.insert(float(x), float(y))
            for x, y in phase.deletes:
                tree.delete(float(x), float(y))
            estimator.estimate(Point(*phase.queries[0].tolist()), 1)
            locator = estimator._leaf_lookup[0]
            longest.append(int(locator._len.max()))
            assert longest[-1] <= 2 * locator._drawn_longest
        monkeypatch.setattr(BlockLocator, "__init__", init)
        rects = partition_bounds(tree)
        assert rects.shape[0] == 1_081
        assert int(BlockLocator(rects, bounds.as_tuple())._len.max()) == 9
        assert (len(built), max(longest)) == (8, 18)
        xs, ys = np.random.default_rng(43).uniform(0.0, 1000.0, size=(2, 1_000))
        fresh = BlockLocator(rects, bounds.as_tuple())
        assert locator.home(xs, ys).tolist() == fresh.home(xs, ys).tolist()

    def test_saved_catalogs_serve_identical_batches(self, tmp_path, osm_points, mixed_batch):
        pts, ks = mixed_batch

        def manager() -> StatisticsManager:
            stats = StatisticsManager(max_k=64)
            stats.register(SpatialTable("osm", osm_points))
            return stats

        built = manager()
        before = built.select_estimator("osm")
        answers = before.estimate_batch(pts, ks)
        assert built.save_select_catalogs(tmp_path) == ["osm"]
        loaded = manager()
        assert loaded.load_select_catalogs(tmp_path) == ["osm"]
        after = loaded.select_estimator("osm")
        assert after is not before and after.preprocessing_seconds == 0.0
        assert after.estimate_batch(pts, ks).tolist() == answers.tolist()
        assert after.storage_bytes() == before.storage_bytes()
        assert after.n_catalogs() == before.n_catalogs()


# ----------------------------------------------------------------------
# (e) the join sample: one batch, same floats, same provenance
# ----------------------------------------------------------------------
def _join_engine(**manager_kwargs) -> SpatialEngine:
    engine = SpatialEngine(
        StatisticsManager(
            max_k=256, pinned_operators={"join": "per-point-selects"}, **manager_kwargs
        )
    )
    engine.register(SpatialTable("osm", generate_osm_like(600, seed=11)))
    engine.register(SpatialTable("uni", generate_uniform(300, seed=12)))
    return engine


def _break_the_staircase(engine: SpatialEngine) -> None:
    always = FaultSchedule(FaultSpec.raising(), every=1)
    chain = engine.stats.resilient_select_estimator("osm")
    chain.wrap_tier(chain.primary_tier, lambda est: FaultInjectingSelectEstimator(est, always))


class TestBatchedJoinSample:
    @pytest.mark.parametrize("fallback", [True, False])
    def test_cost_equals_the_scalar_loop_to_the_last_bit(self, fallback):
        engine = _join_engine(fallback=fallback)
        outer = engine.stats.table("uni").points
        estimator = engine.stats.select_estimator_for_planning("osm")
        for k in (1, 4, 100, 256, 900):
            assert per_point_selects_cost(estimator, outer, k)[0] == (
                reference_builds.per_point_selects_cost(estimator, outer, k)
            )
        assert per_point_selects_cost(estimator, outer[:5], 3)[0] == (
            reference_builds.per_point_selects_cost(estimator, outer[:5], 3)
        )

    @pytest.mark.parametrize("n", [1, 5, 31, 32, 33, 1000])
    def test_the_sample_is_the_seeded_draw_for_its_row_count(self, n):
        expected = np.random.default_rng(0).integers(0, n, size=min(32, n))
        for __ in range(2):  # drawn once, then handed out again
            sample = planner._cost_sample(n)
            assert np.array_equal(sample, expected) and sample.dtype == expected.dtype
            assert not sample.flags.writeable
        assert planner._cost_sample(n) is sample

    def test_healthy_explain_names_the_primary_tier(self):
        explanation = _join_engine().explain(KnnJoinQuery("uni", "osm", k=4))
        assert explanation.chosen == "per-point-selects"
        assert explanation.estimator_tier == "staircase"
        assert not explanation.degraded and explanation.notes == []

    def test_degraded_explain_carries_what_the_scalar_loop_left(self):
        # The scalar loop's cost, and the provenance its last row's walk
        # returns.
        reference = _join_engine()
        _break_the_staircase(reference)
        chain = reference.stats.resilient_select_estimator("osm")
        outer = reference.stats.table("uni").points
        cost = reference_builds.per_point_selects_cost(chain, outer, 4)
        __, last = chain.walk(outer[planner._cost_sample(outer.shape[0])[-1:]], 4)
        left = last.outcome_for(0)

        engine = _join_engine()
        _break_the_staircase(engine)
        explanation = engine.explain(KnnJoinQuery("uni", "osm", k=4))
        assert explanation.alternatives["per-point-selects"] == cost
        assert explanation.estimator_tier == left.tier == "density"
        assert explanation.degraded and left.degraded
        assert explanation.notes == [left.describe()]
        # The sample is one batch walk: the broken tier is asked once.
        assert engine.stats.resilient_select_estimator("osm").tier_instance("staircase").calls == 1

    def test_a_sample_degraded_in_most_rows_explains_as_degraded(self):
        # The Staircase corrupts 31 of the 32 sampled rows, so Density
        # answers them; the sample's last row alone is the Staircase's,
        # and it no longer speaks for the whole cost.
        def corrupted() -> SpatialEngine:
            engine = _join_engine()
            corrupt = FaultSchedule(FaultSpec.corrupting(), calls=range(31))
            chain = engine.stats.resilient_select_estimator("osm")
            chain.wrap_tier(
                chain.primary_tier, lambda est: FaultInjectingSelectEstimator(est, corrupt)
            )
            return engine

        engine = corrupted()
        sample = engine.stats.table("uni").points[planner._cost_sample(300)]
        __, sampled = engine.stats.resilient_select_estimator("osm").walk(sample, 4)
        assert sampled.tiers == ["density"] * 31 + ["staircase"]
        explanation = corrupted().explain(KnnJoinQuery("uni", "osm", k=4))
        assert explanation.chosen == "per-point-selects"
        assert explanation.estimator_tier == "density" and explanation.degraded
        assert explanation.notes == [
            "degraded to tier 'density' (staircase: invalid estimate for 31 of 32 queries)"
        ]
