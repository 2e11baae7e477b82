"""Tests for locality computation and its staircase profile."""

import hashlib

import numpy as np
import pytest

from repro.datasets import WORLD_BOUNDS, generate_osm_like
from repro.engine import SpatialTable
from repro.estimators import CatalogMergeEstimator, VirtualGridEstimator
from repro.geometry import Point, Rect
from repro.geometry.hilbert import hilbert_order
from repro.geometry.kernels import as_anchor, maxdist_rects, mindist_argsort, mindist_rects
from repro.index import IndexSnapshot, Quadtree
from repro.knn import locality as locality_module
from repro.knn import locality_block_indices, locality_size, locality_size_profile
from repro.knn.distance_browsing import brute_force_knn
from repro.perf import parallel
from tests.reference_builds import full_locality_size_profile


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


# ----------------------------------------------------------------------
# The certified window: locality_size_profile reads the w nearest blocks
# by MINDIST and grows w until the mark at max_k is strictly below every
# MINDIST outside.  Held to Procedure 2 over a full stable sort.


def lattice_snapshot(side: int, seed: int, zero_share: float = 0.3) -> IndexSnapshot:
    """Unit blocks on a ``side x side`` lattice with counts in 0..3: MINDISTs
    and MAXDISTs are square roots of integers, so they tie across blocks."""
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    rects = np.column_stack([x.ravel(), y.ravel(), x.ravel() + 1, y.ravel() + 1])
    counts = rng.integers(1, 4, size=rects.shape[0])
    counts[rng.random(rects.shape[0]) < zero_share] = 0
    return IndexSnapshot.from_arrays(rects, counts)


def mark_at_max_k(snap: IndexSnapshot, rect, max_k: int) -> float:
    """The running-MAXDIST mark at the first prefix that reaches ``max_k``."""
    order, __ = mindist_argsort(as_anchor(rect), snap.rects, tie_order=snap.tie_order)
    reach = int(np.searchsorted(np.cumsum(snap.counts[order]), max_k))
    maxdists = maxdist_rects(as_anchor(rect), snap.rects)[order]
    return float(maxdists[: reach + 1].max())


@pytest.fixture
def window_trace(monkeypatch):
    """Each window ``locality_size_profile`` sorts (``"windows"``) and the
    smallest MINDIST outside each partial one (``"edges"``)."""
    trace = {"windows": [], "edges": []}
    real_argpartition, real_lexsort = np.argpartition, np.lexsort

    def argpartition(a, kth, *args, **kwargs):
        order = real_argpartition(a, kth, *args, **kwargs)
        trace["edges"].append(float(a[order[kth]]))
        return order

    def lexsort(keys, *args, **kwargs):
        trace["windows"].append(len(keys[0]))
        return real_lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(locality_module.np, "argpartition", argpartition)
    monkeypatch.setattr(locality_module.np, "lexsort", lexsort)
    return trace


class TestLocalityWindow:
    def test_lattice_ties_and_marks_on_the_window_edge(self, monkeypatch, window_trace):
        marks_on_an_edge = 0
        for first_window in (1, 2, 3, 8):
            monkeypatch.setattr(locality_module, "_FIRST_WINDOW_PER_C", first_window)
            rng = np.random.default_rng(first_window)
            for seed in range(12):
                snap = lattice_snapshot(14, seed)
                for __ in range(6):
                    x0, y0 = rng.integers(0, 14, size=2)
                    x1, y1 = x0 + rng.integers(0, 3, size=2)
                    rect = (float(x0), float(y0), float(x1), float(y1))
                    max_k = int(rng.integers(1, 60))
                    window_trace["edges"].clear()
                    want = full_locality_size_profile(snap, rect, max_k)
                    assert locality_size_profile(snap, rect, max_k) == want
                    marks_on_an_edge += mark_at_max_k(snap, rect, max_k) in window_trace["edges"]
        # Some windows were refused because the mark equals the nearest
        # MINDIST outside them: a '<=' certificate would accept them.
        assert marks_on_an_edge > 0

    def test_zero_count_blocks_in_a_bare_array_snapshot(self, monkeypatch):
        monkeypatch.setattr(locality_module, "_FIRST_WINDOW_PER_C", 1)
        for seed in range(6):
            snap = lattice_snapshot(12, seed, zero_share=0.7)
            for rect in [(0.0, 0.0, 0.0, 0.0), (5.5, 5.5, 6.5, 6.5), (11.0, 0.0, 12.0, 3.0)]:
                for max_k in (1, 5, 20):
                    assert locality_size_profile(snap, rect, max_k) == full_locality_size_profile(snap, rect, max_k)

    def test_max_k_past_the_point_count_reads_every_block(self, window_trace):
        snap = lattice_snapshot(20, 3)
        total, rect = snap.total_count, (4.0, 4.0, 5.0, 5.0)
        for max_k in (total, total + 1, 10 * total):
            window_trace["windows"].clear()
            profile = locality_size_profile(snap, rect, max_k)
            assert profile == full_locality_size_profile(snap, rect, max_k)
            assert profile[-1][1] == total
            assert window_trace["windows"] == [snap.n_blocks]

    def test_a_mark_past_every_mindist_grows_the_window_to_every_block(self, monkeypatch, window_trace):
        # A thin rect across the whole lattice is far (MAXDIST) from
        # every block it is near, so no partial window certifies.
        monkeypatch.setattr(locality_module, "_FIRST_WINDOW_PER_C", 1)
        snap = lattice_snapshot(20, 5)
        rect = (0.0, 9.5, 20.0, 10.5)
        for max_k in (1, 30, 100):
            window_trace["windows"].clear()
            assert locality_size_profile(snap, rect, max_k) == full_locality_size_profile(snap, rect, max_k)
            windows = window_trace["windows"]
            assert len(windows) > 1 and windows[-1] == snap.n_blocks

    def test_a_hilbert_layout_breaks_ties_like_the_canonical_one(self, monkeypatch):
        monkeypatch.setattr(locality_module, "_FIRST_WINDOW_PER_C", 1)
        pts = np.random.default_rng(4).integers(0, 40, size=(3_000, 2)).astype(float)
        canonical = IndexSnapshot.from_index(Quadtree(pts, bounds=Rect(0, 0, 64, 64), capacity=8))
        hilbert = canonical.with_layout(hilbert_order(canonical.centers, canonical.bounds))
        assert hilbert.tie_order is not None
        for rect in canonical.rects[::37]:
            for max_k in (1, 17, 200):
                want = full_locality_size_profile(hilbert, rect, max_k)
                assert want == full_locality_size_profile(canonical, rect, max_k)
                assert locality_size_profile(hilbert, rect, max_k) == want
                assert locality_size_profile(canonical, rect, max_k) == want

    def test_an_outer_rect_over_many_inner_blocks(self, monkeypatch):
        monkeypatch.setattr(locality_module, "_FIRST_WINDOW_PER_C", 1)
        snap = lattice_snapshot(16, 9)
        for rect in [(2.0, 2.0, 13.0, 13.0), (0.0, 0.0, 16.0, 16.0), (3.5, 0.0, 9.5, 16.0)]:
            assert np.count_nonzero(mindist_rects(as_anchor(rect), snap.rects) == 0) > 30
            for max_k in (1, 40, 300):
                assert locality_size_profile(snap, rect, max_k) == full_locality_size_profile(snap, rect, max_k)


# ----------------------------------------------------------------------
# The benchmark's join build, pinned without a clock: 20,000 outer and
# 60,000 inner OSM-like points of seed 800 at capacity 64, max_k 256 and
# 400 sampled outer blocks.

#: sha256 of the ``to_store().to_bytes()`` the full-sort profile produced.
BENCHMARK_CATALOG_MERGE_SHA256 = "165db1f74aca96ab0383371d57e725f21ae785022625f12bdfe89bc686d61412"
BENCHMARK_VIRTUAL_GRID_SHA256 = "52380ea81e16d9a6d56b406a3aeb7cb465d1de69d1a342bc19a4a2b7c8e9f6e5"


@pytest.fixture(scope="module")
def benchmark_snapshots():
    def table(stream: int, n: int) -> IndexSnapshot:
        points = generate_osm_like(n, seed=np.random.default_rng([800, stream]), structure_seed=2015)
        return SpatialTable("t", points, capacity=64).snapshot

    return table(1, 20_000), table(0, 60_000)


def test_the_benchmark_join_catalogs_are_byte_identical(benchmark_snapshots):
    outer, inner = benchmark_snapshots
    merge = CatalogMergeEstimator(outer, inner, sample_size=400, max_k=256)
    grid = VirtualGridEstimator(inner, bounds=WORLD_BOUNDS, grid_size=10, max_k=256)
    assert hashlib.sha256(merge.to_store().to_bytes()).hexdigest() == BENCHMARK_CATALOG_MERGE_SHA256
    assert hashlib.sha256(grid.to_store().to_bytes()).hexdigest() == BENCHMARK_VIRTUAL_GRID_SHA256


def test_the_benchmark_join_build_never_sorts_every_inner_block(benchmark_snapshots, monkeypatch):
    """Each of the 400 profiles sorts its windows only: 561 windows, 246
    profiles certified by the first (152 blocks), 7 grown to 2,432 of the
    2,690 inner blocks, where the full pass sorted every block."""
    outer, inner = benchmark_snapshots
    calls: list[list[int]] = []
    real_profile = parallel.locality_size_profile
    real_sorts = {name: getattr(np, name) for name in ("lexsort", "argsort")}

    def profile(*args):
        calls.append([])
        try:
            return real_profile(*args)
        finally:
            calls.append(None)  # sorts from here on are not a profile's

    def spy(name):
        def sort(a, *args, **kwargs):
            if calls and calls[-1] is not None:
                calls[-1].append(np.shape(a)[-1])
            return real_sorts[name](a, *args, **kwargs)
        return sort

    monkeypatch.setattr(parallel, "locality_size_profile", profile)
    for name in real_sorts:
        monkeypatch.setattr(locality_module.np, name, spy(name))
    CatalogMergeEstimator(outer, inner, sample_size=400, max_k=256)
    windows = [call for call in calls if call is not None]
    assert len(windows) == 400 and inner.n_blocks == 2_690
    assert sum(len(w) for w in windows) == 561
    assert sum(w == [152] for w in windows) == 246
    assert max(max(w) for w in windows) == 2_432
