"""The batch pass is Procedure 1, anchor for anchor, byte for byte.

``repro.perf.profile_staircases`` profiles every anchor of a build or a
reconcile in fixed-shape rounds over spatial groups of anchors, each
over a candidate set of blocks that a MINDIST bound certifies.  These tests
hold it to the single-anchor ``select_cost_profile_covered`` oracle of
``tests/reference_builds.py`` (profile
and coverage radius) over the geometry that could break a batched scan
— ties, duplicates, zero-count blocks, short indexes, layouts,
overlapping MBRs, slab boundaries and doubling rounds — and hold the
catalogs built from it to ``tests/reference_builds.py`` after churn.
"""

from __future__ import annotations

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import generate_osm_like
from repro.engine import SpatialTable
from repro.estimators import StaircaseEstimator
from repro.geometry import Point, Rect
from repro.geometry.hilbert import hilbert_order
from repro.index import IndexSnapshot, MutableQuadtree, Quadtree, RTree, partition_bounds
from repro.index.base import Block
from repro.perf import BlockPointsView, parallel, profile_staircases, select_cost_profiles
from repro.workloads import churn_phases
from tests.reference_builds import (
    count_below_complex,
    select_cost_profile_covered,
    staircase_store,
)


def assert_batch_is_per_anchor(snapshot, blocks, anchors, max_k, workers=None):
    """``select_cost_profiles`` == one ``select_cost_profile_covered`` per anchor.

    The oracle reads ``blocks`` (the per-block distance path); the
    batch pass reads their columnar view.
    """
    points = [Point(float(x), float(y)) for x, y in anchors]
    view = BlockPointsView.from_blocks(blocks)
    batch = select_cost_profiles(snapshot, view, points, max_k, workers)
    assert batch == [select_cost_profile_covered(snapshot, blocks, p, max_k) for p in points]


def anchor_state(estimator):
    """Anchors, radii, step ends, k ends and costs, in coordinate order."""
    anchors = estimator._anchors
    order = np.lexsort((anchors[:, 1], anchors[:, 0]))
    staircases = estimator._staircases.take(order)
    return anchors[order], staircases.radii, staircases.ends, staircases.k_ends, staircases.costs


def edge_anchors(rects: np.ndarray) -> np.ndarray:
    """Every block's corners and edge midpoints: the MINDIST-tie anchors."""
    xs = np.stack([rects[:, 0], (rects[:, 0] + rects[:, 2]) / 2, rects[:, 2]], axis=1)
    ys = np.stack([rects[:, 1], (rects[:, 1] + rects[:, 3]) / 2, rects[:, 3]], axis=1)
    return np.stack(
        [np.repeat(xs, 3, axis=1).ravel(), np.tile(ys, (1, 3)).ravel()], axis=1
    )


lattice = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=120
)
INDEXES = {
    "quadtree": lambda pts, cap: Quadtree(pts, bounds=Rect(0, 0, 12, 12), capacity=cap),
    "rtree": lambda pts, cap: RTree(pts, capacity=max(cap, 2)),
}


class TestBatchPassEqualsPerAnchor:
    @settings(max_examples=60, deadline=None)
    @given(
        coords=lattice,
        kind=st.sampled_from(sorted(INDEXES)),
        capacity=st.integers(1, 8),
        max_k=st.integers(1, 140),
        hilbert=st.booleans(),
        tableau_cells=st.integers(1, 200),
        gather_points=st.integers(1, 64),
        n_extra=st.integers(0, 12),
        grouped=st.booleans(),
    )
    def test_lattice_indexes(
        self, coords, kind, capacity, max_k, hilbert, tableau_cells, gather_points, n_extra,
        grouped,
    ):
        # Lattice points give duplicates and distances equal to a
        # threshold; anchors on block corners and edges give MINDIST
        # ties; tiny slab and gather budgets put anchor counts across
        # slab and chunk boundaries; max_k past the point count gives
        # short anchors; ``grouped`` lets even these small indexes go in
        # spatial groups.
        index = INDEXES[kind](np.array(coords, dtype=float), capacity)
        snapshot = IndexSnapshot.from_index(index)
        if hilbert:
            snapshot = snapshot.with_layout(hilbert_order(snapshot.centers, snapshot.bounds))
        anchors = edge_anchors(snapshot.rects)
        rng = np.random.default_rng(len(coords))
        anchors = np.concatenate([anchors, rng.integers(-2, 15, size=(n_extra, 2)) / 2.0])
        with mock.patch.object(parallel, "_TABLEAU_CELLS", tableau_cells), mock.patch.object(
            parallel, "_GATHER_POINTS", gather_points
        ), mock.patch.object(parallel, "_GROUPED_BLOCKS_PER_C", 0 if grouped else 32):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, max_k)

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 3), min_size=1, max_size=40),
        max_k=st.integers(1, 30),
        tableau_cells=st.integers(1, 100),
    )
    def test_zero_count_blocks(self, counts, max_k, tableau_cells):
        # A row of unit blocks, most of them empty: the candidate
        # guess falls short and rows go through doubling rounds.
        rects = np.array([(i, 0.0, i + 1.0, 1.0) for i in range(len(counts))])
        snapshot = IndexSnapshot.from_arrays(rects, np.array(counts))
        blocks = [
            Block(i, Rect(*rect), np.array([[rect[0] + 0.5, 0.5]] * count).reshape(-1, 2))
            for i, (rect, count) in enumerate(zip(rects, counts))
        ]
        anchors = np.array([[x / 2.0, 0.5] for x in range(-2, 2 * len(counts) + 3)])
        with mock.patch.object(parallel, "_TABLEAU_CELLS", tableau_cells):
            assert_batch_is_per_anchor(snapshot, blocks, anchors, max_k)

    def test_three_doubling_rounds(self):
        # 64 blocks and one point, in the last block: max_k = 1 starts
        # at 9 candidates and doubles 9 -> 18 -> 36 -> 64 (a full sort).
        rects = np.array([(i, 0.0, i + 1.0, 1.0) for i in range(64)])
        counts = np.zeros(64, dtype=np.int64)
        counts[-1] = 1
        snapshot = IndexSnapshot.from_arrays(rects, counts)
        blocks = [Block(i, Rect(*r), np.empty((0, 2))) for i, r in enumerate(rects[:-1])]
        blocks.append(Block(63, Rect(*rects[-1]), np.array([[63.5, 0.5]])))
        seen = []
        nearest = parallel._nearest

        def spy(*args):
            seen.append(args[-1])
            return nearest(*args)

        with mock.patch.object(parallel, "_nearest", spy):
            assert_batch_is_per_anchor(snapshot, blocks, [(0.0, 0.5), (30.0, 0.2)], 1)
        assert seen == [9, 18, 36, 64]

    @pytest.mark.parametrize("slack", [0, 8])
    def test_a_refresh_sized_pass_on_a_tied_lattice(self, monkeypatch, slack):
        """About 40 anchors over about 165 blocks, a churn phase's pass:
        lattice points on block edges, anchors on leaf corners and edge
        midpoints, MINDISTs tied at the thresholds.  Rows whose window
        edge ties its last kept MINDIST miss the certificate and are
        ordered over every block (with no slack past ``c + 1`` some do);
        both kinds equal the per-anchor scan."""
        monkeypatch.setattr(parallel, "WINDOW_SLACK", slack)
        rng = np.random.default_rng(40)
        points = rng.integers(0, 65, size=(1_100, 2)).astype(float)
        index = Quadtree(points, bounds=Rect(0.0, 0.0, 64.0, 64.0), capacity=16)
        snapshot = IndexSnapshot.from_index(index)
        assert 140 <= snapshot.n_blocks <= 200
        candidates = edge_anchors(partition_bounds(index))
        pick = np.random.default_rng(1).choice(candidates.shape[0], size=40, replace=False)
        anchors = candidates[pick]
        by_mindist, widths = parallel._by_mindist, []

        def spy(xy, cols, pick):
            widths.append(pick.shape[1])
            return by_mindist(xy, cols, pick)

        monkeypatch.setattr(parallel, "_by_mindist", spy)
        assert_batch_is_per_anchor(snapshot, index.blocks, anchors, 32)
        if slack == 0:  # some row missed its window's certificate
            assert snapshot.n_blocks in widths and min(widths) < snapshot.n_blocks

    def test_one_block_and_max_k_one(self):
        index = Quadtree(np.array([[1.0, 1.0], [1.0, 1.0], [2.0, 3.0]]), capacity=8)
        snapshot = IndexSnapshot.from_index(index)
        anchors = np.concatenate([edge_anchors(snapshot.rects), [[9.0, 9.0]]])
        for max_k in (1, 2, 3, 4, 50):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, max_k)

    def test_empty_index(self):
        index = Quadtree(np.empty((0, 2)), bounds=Rect(0, 0, 10, 10), capacity=4)
        snapshot = IndexSnapshot.from_index(index)
        assert_batch_is_per_anchor(snapshot, index.blocks, [(1.0, 2.0), (5.0, 5.0)], 8)
        staircases = profile_staircases(snapshot, BlockPointsView.from_blocks([]), [(1.0, 2.0)], 8)
        assert staircases.radii.tolist() == [np.inf]

    def test_workers_match_serial(self):
        index = Quadtree(generate_osm_like(2_000, seed=5), capacity=32)
        snapshot = IndexSnapshot.from_index(index)
        anchors = edge_anchors(snapshot.rects)[::7]
        assert_batch_is_per_anchor(snapshot, index.blocks, anchors, 64, workers=2)

    def test_max_k_below_one_rejected(self):
        index = Quadtree(np.array([[1.0, 1.0]]), capacity=4)
        with pytest.raises(ValueError):
            profile_staircases(index, BlockPointsView.from_blocks(index.blocks), [(0.0, 0.0)], 0)


def groups_seen():
    """Patch ``parallel._groups`` to record every ``(group, blocks, rho)`` it yields."""
    seen = []
    groups = parallel._groups

    def spy(*args):
        for group in groups(*args):
            seen.append(group)
            yield group

    return seen, mock.patch.object(parallel, "_groups", spy)


def fallback_anchors(seen, radii: np.ndarray) -> int:
    """Anchors whose coverage radius missed their group's certificate."""
    return sum(int((radii[group] >= rho).sum()) for group, __, rho in seen)


class TestGroupedPass:
    """Spatial groups over certified candidate sets, held to the per-anchor scan.

    The indexes here are small, so every test lets them go in groups.
    """

    @pytest.fixture(autouse=True)
    def group_small_indexes(self):
        with mock.patch.object(parallel, "_GROUPED_BLOCKS_PER_C", 0):
            yield

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_points=st.integers(20, 400),
        kind=st.sampled_from(sorted(INDEXES)),
        capacity=st.integers(2, 12),
        max_k=st.integers(1, 500),
        tableau_cells=st.integers(1, 400),
        slack=st.sampled_from([0.0, 0.5, 1.0, 1.25, 3.0]),
    )
    def test_clustered_data(self, seed, n_points, kind, capacity, max_k, tableau_cells, slack):
        # Three tight cities and little else: blocks crowd the clusters
        # and the regions between hold none, so a group's box reaches
        # over empty space.  Block corners are anchors, so groups have
        # anchors on their box edges; a few anchors sit far outside the
        # universe; max_k runs past the point count; a tiny cell budget
        # splits the anchors into many groups (single anchors included);
        # a low slack makes anchors miss the certificate.
        points = generate_osm_like(
            n_points, seed=seed, bounds=Rect(0, 0, 12, 12), n_cities=3, n_roads=1,
            city_fraction=0.9, road_fraction=0.05,
        )
        index = INDEXES[kind](points, capacity)
        snapshot = IndexSnapshot.from_index(index)
        anchors = edge_anchors(snapshot.rects)[:: 1 + len(snapshot.rects) // 12]
        far = np.array([[-1e4, 6.0], [6.0, 1e4], [1e6, -1e6]])
        anchors = np.concatenate([anchors, far])
        with mock.patch.object(parallel, "_TABLEAU_CELLS", tableau_cells), mock.patch.object(
            parallel, "_SLACK", slack
        ):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, max_k)

    def test_anchors_that_miss_the_certificate_fall_back(self):
        # A slack of 0.5 stops a group's candidates at half the box's
        # max_k-point MAXDIST: anchors whose coverage reaches past that
        # go round again over every block, the others stay certified.
        index = Quadtree(generate_osm_like(1_500, seed=7), capacity=16)
        snapshot = IndexSnapshot.from_index(index)
        anchors = edge_anchors(snapshot.rects)[::9]
        seen, spy = groups_seen()
        with spy, mock.patch.object(parallel, "_SLACK", 0.5):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, 48)
        radii = profile_staircases(
            snapshot, BlockPointsView.from_blocks(index.blocks), anchors, 48
        ).radii
        assert len(seen) > 1
        assert 0 < fallback_anchors(seen, radii) < anchors.shape[0]

    def test_anchors_on_group_box_edges(self):
        # A lattice of points in unit blocks and every lattice node an
        # anchor: each group's box has anchors on all four edges, and
        # block edges coincide with box edges, so box MINDISTs are 0 or
        # equal to anchor MINDISTs.
        xs, ys = np.meshgrid(np.arange(16) + 0.5, np.arange(16) + 0.5)
        points = np.stack([xs.ravel(), ys.ravel()], axis=1).repeat(2, axis=0)
        index = Quadtree(points, bounds=Rect(0, 0, 16, 16), capacity=2)
        snapshot = IndexSnapshot.from_index(index)
        anchors = np.stack(
            [c.ravel() for c in np.meshgrid(np.arange(17.0), np.arange(17.0))], axis=1
        )
        seen, spy = groups_seen()
        with spy, mock.patch.object(parallel, "_TABLEAU_CELLS", 2_000):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, 9)
        assert len(seen) > 1
        assert all(rho < np.inf for __, __, rho in seen)

    def test_max_k_past_the_point_count_uses_every_block(self):
        # No candidate set can hold max_k points: every group is every
        # block, and every coverage radius is unbounded.
        index = Quadtree(generate_osm_like(300, seed=3), capacity=4)
        snapshot = IndexSnapshot.from_index(index)
        anchors = edge_anchors(snapshot.rects)[::4]
        seen, spy = groups_seen()
        with spy, mock.patch.object(parallel, "_TABLEAU_CELLS", 500):
            assert_batch_is_per_anchor(snapshot, index.blocks, anchors, 301)
        assert len(seen) > 1
        assert all(blocks.shape[0] == snapshot.n_blocks for __, blocks, __ in seen)
        radii = profile_staircases(
            snapshot, BlockPointsView.from_blocks(index.blocks), anchors, 301
        ).radii
        assert np.isinf(radii).all()


class TestCatalogsAfterChurn:
    """Fifty churn phases: maintained == fresh == the per-anchor reference."""

    @pytest.mark.parametrize("variant", ["center+corners", "center"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_maintained_equals_fresh_and_reference(self, variant, workers):
        self.check_churn(variant, workers)

    @pytest.mark.parametrize("variant", ["center+corners", "center"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_grouped_maintained_equals_fresh_and_reference(self, variant, workers):
        # The same churn with even this small index's build and reconciles
        # going in spatial anchor groups (forked workers inherit the patch).
        with mock.patch.object(parallel, "_GROUPED_BLOCKS_PER_C", 0):
            self.check_churn(variant, workers)

    def check_churn(self, variant, workers):
        bounds = Rect(0.0, 0.0, 1000.0, 1000.0)
        initial = generate_osm_like(600, seed=9)
        tree = MutableQuadtree(initial, bounds=bounds, capacity=16)
        maintained = StaircaseEstimator(
            tree, aux_index=tree, max_k=32, variant=variant, workers=workers
        )
        phases = churn_phases(
            initial, bounds, phases=50, inserts_per_phase=2, deletes_per_phase=1,
            queries_per_phase=1, max_k=32, seed=4,
        )
        for phase in phases:
            for x, y in phase.inserts:
                tree.insert(float(x), float(y))
            for x, y in phase.deletes:
                tree.delete(float(x), float(y))
            maintained.refresh_incremental()
        got = maintained.to_store().to_bytes()
        fresh = StaircaseEstimator(tree, aux_index=tree, max_k=32, variant=variant, workers=workers)
        assert got == fresh.to_store().to_bytes()
        assert got == staircase_store(tree, 32, variant).to_bytes()
        # The kept per-anchor state is a fresh build's, anchor for anchor.
        for got_part, want_part in zip(anchor_state(maintained), anchor_state(fresh)):
            assert np.array_equal(got_part, want_part)

    @pytest.mark.parametrize("variant", ["center+corners", "center"])
    @pytest.mark.parametrize("workers", [None, 2])
    def test_grouped_build_equals_reference(self, variant, workers):
        # 800-odd blocks against a first round of 12 candidates: large
        # enough that the build goes in spatial groups unpatched.
        tree = Quadtree(generate_osm_like(6_000, seed=21), capacity=16)
        seen, spy = groups_seen()
        with spy:
            built = StaircaseEstimator(tree, max_k=32, variant=variant, workers=workers)
        assert built.to_store().to_bytes() == staircase_store(tree, 32, variant).to_bytes()
        if workers is None:
            assert len(seen) > 1
            assert all(blocks.shape[0] < len(tree.blocks) for __, blocks, __ in seen)

    def test_refresh_with_nothing_missing_profiles_nothing(self):
        # The auxiliary leaves cover the south-west corner; a mutation in
        # the far north-east lies outside every coverage disc, so the
        # refresh keeps every entry and never flattens a block.
        tree = MutableQuadtree(
            generate_osm_like(800, seed=2), bounds=Rect(0, 0, 1000, 1000), capacity=16
        )
        aux = Quadtree(
            np.array([[10.0, 10.0], [200.0, 200.0], [100.0, 50.0]]),
            bounds=Rect(0, 0, 250, 250),
            capacity=1,
        )
        estimator = StaircaseEstimator(tree, aux_index=aux, max_k=16)
        tree.insert(990.0, 990.0)
        with mock.patch.object(BlockPointsView, "from_blocks", side_effect=AssertionError):
            report = estimator.refresh_incremental()
        assert report.catalogs_rebuilt == 0 < report.catalogs_reused
        assert estimator.preprocessing_stats.anchors_unique == 0
        assert not estimator.is_stale


class TestEmptyIndexRoundTrip:
    def test_from_store_answers_zero_like_the_built_estimator(self):
        tree = Quadtree(np.empty((0, 2)), bounds=Rect(0, 0, 10, 10), capacity=4)
        built = StaircaseEstimator(tree, max_k=8)
        restored = StaircaseEstimator.from_store(tree, built.to_store())
        queries = np.array([[5.0, 5.0], [50.0, 5.0], [1.0, 1.0], [-3.0, 4.0]])
        ks = np.array([3, 3, 30, 1])
        for estimator in (built, restored):
            assert [estimator.estimate(Point(*q), int(k)) for q, k in zip(queries, ks)] == [0.0] * 4
            assert estimator.estimate_batch(queries, ks).tolist() == [0.0] * 4
        assert restored.to_store().to_bytes() == built.to_store().to_bytes()


def laid_out(rows):
    """A fresh :class:`Staircases` of ``(k_ends, costs, radius)`` rows, end
    to end, its costs in the narrowest dtype that holds them."""
    top = max((c for __, costs, __ in rows for c in costs), default=0)
    return parallel.Staircases(
        np.cumsum([0] + [len(k_ends) for k_ends, __, __ in rows]),
        np.array([k for k_ends, __, __ in rows for k in k_ends], dtype=np.int64),
        np.array([c for __, costs, __ in rows for c in costs], dtype=np.min_scalar_type(top)),
        np.array([radius for __, __, radius in rows], dtype=float),
    )


def random_rows(rng, m, top_cost):
    rows = []
    for __ in range(m):
        steps = int(rng.integers(1, 6))
        k_ends = np.sort(rng.choice(np.arange(1, 64), size=steps, replace=False)).tolist()
        costs = np.sort(rng.choice(np.arange(1, top_cost + 1), size=steps, replace=False)).tolist()
        rows.append((k_ends, costs, float(rng.uniform(0.0, 9.0))))
    return rows


class TestStaircasesPut:
    def test_put_reads_like_a_fresh_table(self):
        """Replaced slots, slots past the end, a source that has been
        through ``put`` itself (steps it no longer reads, a spare tail)
        and a cost past 255, which widens uint8 to uint16: after every
        put, ``take`` and ``dense`` of every slot equal a fresh table's."""
        rng = np.random.default_rng(12)
        truth = random_rows(rng, 6, 200)
        table = laid_out(truth)
        assert table.costs.dtype == np.uint8

        def put(slots, rows, source=None):
            table.put(np.array(slots), laid_out(rows) if source is None else source)
            for slot, row in zip(slots, rows):
                if slot == len(truth):
                    truth.append(row)
                else:
                    truth[slot] = row
            everything = np.arange(len(truth))
            fresh, read = laid_out(truth), table.take(everything)
            for name in ("starts", "ends", "k_ends", "costs", "radii"):
                assert getattr(read, name).tolist() == getattr(fresh, name).tolist(), name
            assert read.costs.dtype == fresh.costs.dtype
            assert table.dense(everything, 64).tolist() == fresh.dense(everything, 64).tolist()

        put([1, 4], random_rows(rng, 2, 200))  # replaced slots
        put([6, 7], random_rows(rng, 2, 200))  # the table grows
        for __ in range(6):  # past the spare steps: laid out afresh
            put([int(rng.integers(0, 8))], random_rows(rng, 1, 200))
        assert table.costs.dtype == np.uint8
        source_rows = random_rows(rng, 3, 200)
        source = laid_out(source_rows)
        source.put(np.array([1]), laid_out(random_rows(rng, 1, 200)))  # steps it no longer reads
        source.put(np.array([1]), laid_out(source_rows[1:2]))
        assert source.used < source.k_ends.shape[0]  # a spare tail
        put([2, 8, 0], source_rows, source)
        copy = laid_out(truth)
        steps = copy.used
        copy.put(np.array([0, 1, 2]), source)
        assert copy.used == steps + source.used  # the source's spare tail is not copied
        put([3], [([2, 40], [100, 300], 1.5)])  # widens the cost dtype
        assert table.costs.dtype == np.uint16


# Traced peak of a 20k-point build, in MB: the batch pass measures 3.7
# where the per-anchor loop measured 13.0.  Allocations are
# deterministic, so this needs no wall clock.
BUILD_PEAK_CEILING_MB = 5.0


def test_build_traced_peak_stays_under_budget():
    tree = Quadtree(generate_osm_like(20_000, seed=800), capacity=64)
    tracemalloc.start()
    try:
        StaircaseEstimator(tree, max_k=256)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / 1e6 < BUILD_PEAK_CEILING_MB


def test_build_reads_a_quarter_of_the_all_blocks_tableau():
    # MINDIST cells of the same 20k-point build: the grouped pass
    # computes 550,137 (group tableaus, ranked on squared keys, plus one
    # box row per candidate search) where a tableau of every anchor
    # against every block has 2,704 x 915 = 2,474,160 — 0.222 of it.
    # Cells are a count, so this needs no wall clock.
    tree = Quadtree(generate_osm_like(20_000, seed=800), capacity=64)
    cells = []
    kernel, gaps = parallel.mindist_rects_batch, parallel.mindist_gaps

    def spy(anchors, rects):
        tableau = kernel(anchors, rects)
        cells.append(tableau.size)
        return tableau

    def spy_gaps(x0, y0, x1, y1, x, y):
        if np.ndim(x0) == 1:  # a slab's ranked tableau, not a window's rows
            cells.append(x.shape[0] * x0.shape[0])
        return gaps(x0, y0, x1, y1, x, y)

    with mock.patch.object(parallel, "mindist_rects_batch", spy), mock.patch.object(
        parallel, "mindist_gaps", spy_gaps
    ):
        estimator = StaircaseEstimator(tree, max_k=256)
    assert sum(cells) == 550_137
    n_anchors = estimator.preprocessing_stats.anchors_unique
    assert sum(cells) <= n_anchors * IndexSnapshot.from_index(tree).n_blocks / 4


# ----------------------------------------------------------------------
# The binning: count_below sorts each row once and searches its thresholds
# into it.  Held to the complex-key binning it replaced and to a brute
# (values < threshold).sum() on the cases that bend a strict '<'.


def brute_count_below(lengths, dists, thresholds):
    ends = np.cumsum(lengths)
    return np.array(
        [[int((dists[end - n : end] < t).sum()) for t in row]
         for n, end, row in zip(lengths, ends, thresholds)],
        dtype=np.int64,
    ).reshape(thresholds.shape)


def assert_bins_like_oracles(lengths, dists, thresholds):
    lengths = np.asarray(lengths, dtype=np.int64)
    dists = np.asarray(dists, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float).reshape(lengths.shape[0], -1)
    R = parallel.count_below(dists, lengths, thresholds)
    assert R.dtype == np.int64
    assert np.array_equal(R, count_below_complex(lengths, dists, thresholds))
    assert np.array_equal(R, brute_count_below(lengths, dists, thresholds))


class TestCountBelow:
    def test_a_value_equal_to_a_threshold_is_not_below_it(self):
        assert_bins_like_oracles([3, 2], [2.0, 1.0, 3.0, 5.0, 5.0], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])

    def test_infinite_thresholds_count_every_finite_value(self):
        assert_bins_like_oracles(
            [4, 3], [3.0, 0.0, np.inf, 1.0, 2.0, 2.0, 7.0], [[1.0, np.inf, np.inf], [2.0, 7.0, np.inf]]
        )

    def test_rows_with_no_values(self):
        assert_bins_like_oracles([0, 2, 0, 1], [1.0, 0.5, 4.0], [[1.0, 2.0]] * 4)

    def test_rows_whose_values_lie_past_every_threshold(self):
        assert_bins_like_oracles([2, 3], [9.0, 8.0, 5.0, 6.0, 7.0], [[1.0, 2.0, 4.0], [0.0, 1.0, 5.0]])

    def test_a_single_row(self):
        assert_bins_like_oracles([5], [4.0, 1.0, 1.0, 3.0, 0.0], [[0.0, 1.0, 1.5, 4.0, np.inf]])

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("longest", [14, 400])
    def test_random_rows_on_a_tied_grid_match_both_oracles(self, seed, longest):
        rng = np.random.default_rng(seed)
        q, c = int(rng.integers(1, 9)), int(rng.integers(1, 7))
        lengths = rng.integers(0, longest, size=q)
        # Quarter-steps: many values tie each other and the thresholds.
        dists = rng.integers(0, 3 * longest, size=int(lengths.sum())) / 4.0
        thresholds = rng.integers(0, 3 * longest, size=(q, c)) / 4.0
        thresholds[rng.random((q, c)) < 0.1] = np.inf
        assert_bins_like_oracles(lengths, dists, np.sort(thresholds, axis=1))

    @pytest.mark.parametrize("gather_points", [1, 7, 40])
    def test_rows_on_both_sides_of_a_gather_cut(self, monkeypatch, gather_points):
        """``_retrievable`` cuts a round into gathers of about
        ``_GATHER_POINTS`` distances; rows on either side of each cut bin
        like one brute pass over the round."""
        monkeypatch.setattr(parallel, "_GATHER_POINTS", gather_points)
        rng = np.random.default_rng(gather_points)
        points = rng.integers(0, 6, size=(60, 2)).astype(float)
        view = BlockPointsView(points, np.arange(0, 61, 5))
        q, c = 6, 4
        xy = rng.integers(0, 6, size=(q, 2)).astype(float)
        blocks = np.stack([rng.permutation(12)[:c] for __ in range(q)])
        starts, lengths = view.offsets[blocks], np.full((q, c), 5)
        thresholds = np.sort(rng.integers(0, 9, size=(q, c)) / 1.0, axis=1)
        R = parallel._retrievable(view, xy, starts, lengths, thresholds)
        dists, __ = view.gather(xy, starts, lengths)
        assert np.array_equal(R, brute_count_below(lengths.sum(axis=1), dists, thresholds))


# ----------------------------------------------------------------------
# The benchmark's Staircase build, pinned without a clock: the OSM-like
# 60,000 points of seed 800 at capacity 64 and max_k 256.

#: sha256 of the build's ``to_store().to_bytes()`` (688,148 bytes), as the
#: complex-key binning produced it.
BENCHMARK_STAIRCASE_SHA256 = "bb5cb3937f50797272365b1671d18555c6c586554c67cbd78e18ddf888f28527"


@pytest.fixture(scope="module")
def benchmark_table():
    points = generate_osm_like(60_000, seed=np.random.default_rng([800, 0]), structure_seed=2015)
    return SpatialTable("points", points, capacity=64)


def test_the_benchmark_build_is_byte_identical_and_its_work_pinned(benchmark_table, monkeypatch):
    passes, gathered = [], []
    real = parallel._retrievable

    def spy(view, xy, starts, lengths, thresholds):
        passes.append(1)
        gathered.append(int(lengths.sum()))
        return real(view, xy, starts, lengths, thresholds)

    monkeypatch.setattr(parallel, "_retrievable", spy)
    table = benchmark_table
    store = StaircaseEstimator(table.index, max_k=256, snapshot=table.snapshot).to_store()
    assert hashlib.sha256(store.to_bytes()).hexdigest() == BENCHMARK_STAIRCASE_SHA256
    assert len(passes) == 418
    # Points of the blocks each round reads.  Which of two blocks tied at
    # a round's last rank is read moves this count, never a staircase:
    # the window breaks such ties by candidate row (5,319,349 when a
    # partial sort of the exact MINDISTs chose).
    assert sum(gathered) == 5_319_103
