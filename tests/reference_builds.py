"""The per-anchor catalog builds, kept as the oracle of the production builds.

What ``StaircaseEstimator(dedup=False)`` and ``CatalogMergeEstimator(fast=False)``
used to select inside ``src/``: one Procedure 1 run per anchor with the corners
merged by the paper's min-heap plane sweep, and one Procedure 2 profile per
sampled outer block summed by the same sweep — assembled from the public
paper-faithful pieces.  The equivalence tests compare ``to_store()`` bytes.

The heap sweep itself (:func:`plane_sweep`) is the oracle of
``repro.catalog.merge``'s vectorized ``merge_max`` / ``merge_sum``.

The all-rects containment passes (:func:`leaf_id_for_point`,
:func:`leaf_ids_for_points`) are what ``repro.index`` located home
blocks with before ``BlockLocator``; the per-leaf estimate loop
(:func:`staircase_estimate_batch`) and the one-select-at-a-time join
sample (:func:`per_point_selects_cost`) are what
``StaircaseEstimator.estimate_batch`` and the planner ran before the
stacked catalogs.  All four are the oracles of their replacements:
equal to the last bit, first-offender errors included.

A whole-tree gather (:func:`assert_matches_gather`) is the oracle of the
block summary, points view and leaf table that an incremental Staircase
refresh splices together region by region.

The per-anchor scalar Procedure 1 scan (:func:`select_cost_profile_covered`,
once ``repro.knn.distance_browsing``'s) is the oracle of the batched
``repro.perf.profile_staircases``, anchor for anchor, coverage radius
included, and through :func:`staircase_store` of the Staircase build.

The cold set-up's former passes are the oracles of their replacements:
the complex-key binning (:func:`count_below_complex`) of the sort-per-row
``repro.perf.parallel.count_below``; Procedure 2 over a full stable MINDIST
sort (:func:`full_locality_size_profile`) of the certified-window
``repro.knn.locality.locality_size_profile``; and the second partition
over ``(x, y, row)`` (:func:`partition_row_ids`) of the row ids a
``Quadtree`` records while it builds.

The localities ``src/`` computed before every one was read from that
window are the oracles of ``repro.knn.locality.locality`` and its loops:
a full MINDIST sort and MAXDIST row per rect (:func:`full_sort_locality`,
once ``locality_block_indices``, with β as the locality join took it),
and the ``(m, n)`` MINDIST/MAXDIST tableau (:func:`tableau_locality_sizes`,
once ``locality_sizes`` and Block-Sample's estimate;
:func:`locality_coverage_radii`, the profiles' coverage radii).
"""

import dataclasses
import heapq
from typing import Callable, Sequence

import numpy as np

from repro.catalog import IntervalCatalog
from repro.catalog.store import CatalogStore
from repro.estimators.block_sample import sample_block_indices
from repro.engine.planner import SELECT_COST_SAMPLE
from repro.estimators.base import normalize_batch_args
from repro.estimators.maintenance import region_keys
from repro.geometry import Point, Rect
from repro.geometry.kernels import (
    as_anchor,
    maxdist_rects,
    maxdist_rects_batch,
    mindist_argsort,
    mindist_rects,
    mindist_rects_batch,
    staircase_interpolate,
    tie_stable_argsort,
)
from repro.index.snapshot import IndexSnapshot, as_snapshot, partition_bounds
from repro.perf import BlockPointsView


def plane_sweep(
    catalogs: Sequence[IntervalCatalog],
    combine: Callable[[list[float]], float],
) -> IntervalCatalog:
    """Sweep the k ranges of all catalogs, combining costs per segment.

    The heap holds ``(next_boundary_k_end, catalog_idx)`` frontiers; at
    each step the sweep advances to the smallest upper boundary among
    the catalogs' current entries and emits one merged range, mirroring
    the paper's Figure 8 walk-through ("a min-heap is used to
    efficiently determine the next smallest value across all the
    temporary catalogs").
    """
    if not catalogs:
        raise ValueError("cannot merge zero catalogs")
    if len(catalogs) == 1:
        return catalogs[0].coalesced()

    max_k = min(c.max_k for c in catalogs)
    # Current entry index per catalog, plus a heap of upcoming range ends.
    positions = [0] * len(catalogs)
    heap: list[tuple[int, int]] = [(int(c.k_ends[0]), i) for i, c in enumerate(catalogs)]
    heapq.heapify(heap)

    entries: list[tuple[int, int, float]] = []
    k_start = 1
    while k_start <= max_k:
        current = combine([float(c.costs[positions[i]]) for i, c in enumerate(catalogs)])
        # The merged range extends to the nearest boundary of any input.
        boundary, __ = heap[0]
        k_end = min(boundary, max_k)
        if entries and entries[-1][2] == current:
            prev_start, __, __ = entries[-1]
            entries[-1] = (prev_start, k_end, current)
        else:
            entries.append((k_start, k_end, current))
        k_start = k_end + 1
        # Advance every catalog whose current range ends at the boundary.
        while heap and heap[0][0] < k_start:
            __, idx = heapq.heappop(heap)
            positions[idx] += 1
            if positions[idx] < catalogs[idx].n_entries:
                heapq.heappush(heap, (int(catalogs[idx].k_ends[positions[idx]]), idx))
    return IntervalCatalog(entries)


def evaluate_dense(catalog: IntervalCatalog) -> np.ndarray:
    """Expand a catalog into a dense cost array indexed by ``k - 1``.

    Dense expansion makes merge semantics trivially checkable against
    numpy reductions.
    """
    dense = np.empty(catalog.max_k, dtype=float)
    for k_start, k_end, cost in catalog.entries():
        dense[k_start - 1 : k_end] = cost
    return dense


def select_cost_profile_covered(
    snapshot,
    blocks,
    query: Point,
    max_k: int,
) -> tuple[list[tuple[int, int, int]], float]:
    """Procedure 1 at one anchor: its cost-vs-k staircase and coverage radius.

    Blocks are visited in MINDIST order from ``query``; after scanning
    the ``i``-th block, the number of points retrievable at cost ``i``
    is the count of scanned points with distance strictly below the
    next block's MINDIST.  The scan stops at the first block after which ``max_k`` points are
    retrievable.  Every quantity the profile reads — the scanned
    blocks' point distances and the per-step thresholds (each next
    block's MINDIST) — concerns only blocks with MINDIST at most ``C``,
    the MINDIST of the first *unscanned* block, which the scan holds as
    its final threshold.  Mutations confined to regions with
    ``MINDIST(query, region) > C`` therefore leave the profile (and any
    catalog built from it) bit-for-bit unchanged: mutated blocks lie
    inside their noted region, so they sort strictly after the scanned
    prefix and past the final threshold.

    :func:`repro.perf.profile_staircases` runs this scan for many
    anchors at once, in fixed-shape rounds over candidate sets that
    this bound certifies, and is held to it anchor for anchor.

    Returns:
        ``(profile, C)``.  ``C`` is ``inf`` — any mutation anywhere may
        be visible — when the profile is empty, never reaches ``max_k``
        (fewer than ``max_k`` points: any insert could extend it), or
        scanned every block (the final threshold was unbounded).
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(snapshot)
    n_blocks = snap.n_blocks
    if n_blocks == 0:
        return [], np.inf
    mindists_all = mindist_rects((query.x, query.y), snap.rects)

    # Only the blocks nearest to the query matter, but how many is not
    # known in advance (low-density areas can force scanning far beyond
    # the first max_k points).  Select a candidate set with a partial
    # partition — far cheaper than a full argsort of every block for
    # every catalog anchor — and grow it geometrically until the
    # profile reaches max_k.
    avg_count = max(1.0, snap.total_count / n_blocks)
    candidates = min(n_blocks, int(max_k / avg_count) + 8)
    while True:
        if candidates < n_blocks:
            nearest = np.argpartition(mindists_all, candidates)[: candidates + 1]
            nearest = nearest[np.argsort(mindists_all[nearest], kind="stable")]
            order = nearest[:candidates]
            # MINDIST of the nearest block *outside* the candidate set:
            # the threshold that applies after scanning the last one.
            beyond = float(mindists_all[nearest[candidates]])
        else:
            order = np.argsort(mindists_all, kind="stable")
            beyond = np.inf
        mindists = mindists_all[order]
        prefix = order.shape[0]

        # One concatenated sort answers every per-step threshold: every
        # point in a block beyond position i lies at distance >= that
        # block's MINDIST >= the step-i threshold, so counting over the
        # whole prefix never overcounts an earlier step.
        # ``order`` indexes snapshot *rows*; the summary's ``block_ids``
        # map rows to positions in ``blocks``, so a physically reordered
        # snapshot (Hilbert layout) still reads the right blocks.  The
        # profile itself is tie-invariant — equal-MINDIST blocks share
        # every threshold they could straddle — so no tie correction of
        # the row order is needed for layout parity.
        dists = np.concatenate(
            [blocks[int(i)].distances_from(query) for i in snap.block_ids[order]]
        )
        dists.sort(kind="stable")
        # Threshold after scanning block i is the next block's MINDIST.
        thresholds = np.empty(prefix, dtype=float)
        thresholds[: prefix - 1] = mindists[1:prefix]
        thresholds[prefix - 1] = beyond
        retrievable = np.searchsorted(dists, thresholds, side="left")
        if retrievable[-1] >= max_k or candidates >= n_blocks:
            break
        candidates = min(n_blocks, candidates * 2)

    profile: list[tuple[int, int, int]] = []
    k_reached = 0  # points already retrievable at the previous cost
    for i in range(prefix):
        r = int(retrievable[i])
        if r > k_reached:
            profile.append((k_reached + 1, r, i + 1))
            k_reached = r
        if k_reached >= max_k:
            return profile, float(thresholds[i])
    return profile, np.inf


def scalar_select_catalog(snapshot, blocks, anchor: Point, max_k: int) -> IntervalCatalog:
    """Procedure 1's catalog at one anchor: its profile padded and truncated
    to ``max_k`` (cost 0 everywhere over an empty index)."""
    profile, __ = select_cost_profile_covered(snapshot, blocks, anchor, max_k)
    if not profile:
        return IntervalCatalog.constant(0.0, max_k)
    return IntervalCatalog.from_profile(profile, max_k=max_k).truncated(max_k)


def staircase_store(index, max_k: int, variant: str = "center+corners") -> CatalogStore:
    """``StaircaseEstimator(index, max_k=max_k, variant=variant).to_store()``, per leaf."""
    snapshot, blocks, leaves = IndexSnapshot.from_index(index), index.blocks, index.leaves
    store = CatalogStore(
        {"technique": "staircase", "variant": variant, "max_k": str(max_k),
         "n_leaves": str(len(leaves)), "data_generation": str(snapshot.data_generation)}
    )
    for i, leaf in enumerate(leaves):
        store.put(f"center/{i}", scalar_select_catalog(snapshot, blocks, leaf.rect.center, max_k))
    for i, leaf in enumerate(leaves if variant == "center+corners" else ()):
        corners = [scalar_select_catalog(snapshot, blocks, c, max_k) for c in leaf.rect.corners()]
        store.put(f"corners/{i}", plane_sweep(corners, max))
    return store


def catalog_merge_store(outer, inner, sample_size: int, max_k: int) -> CatalogStore:
    """``CatalogMergeEstimator(outer, inner, sample_size, max_k).to_store()``, per block."""
    outer_snap, inner_snap = as_snapshot(outer).canonical(), as_snapshot(inner).canonical()
    sample = sample_block_indices(outer_snap.n_blocks, sample_size)
    temporaries = [
        IntervalCatalog.from_profile(
            full_locality_size_profile(inner_snap, rect, max_k), max_k=max_k
        ).truncated(max_k)
        for rect in outer_snap.rects[sample]
    ]
    store = CatalogStore(
        {"technique": "catalog-merge", "scale": repr(outer_snap.n_blocks / sample.shape[0]),
         "sample_size": str(sample.shape[0])}
    )
    store.put("merged", plane_sweep(temporaries, sum))
    return store


def leaf_id_for_point(
    leaf_rects: np.ndarray, x: float, y: float, bounds
) -> int:
    """Locate the partition leaf containing ``(x, y)`` by its bounds.

    Space partitions resolve shared edges to the east/north side (the
    strict ``<`` descent of :meth:`repro.index.quadtree.Quadtree.leaf_for`),
    which over leaf bounds is exactly half-open containment
    ``[min, max)`` — closed at the universe's east/north edges so
    boundary queries stay inside the outermost leaves.  Keying lookups
    by leaf *bounds* instead of node object identity is what lets
    catalogs survive persistence round-trips (`from_store`) without
    assuming the auxiliary index yields the very same node objects.

    Args:
        leaf_rects: ``(n_leaves, 4)`` array from :func:`partition_bounds`.
        x: Query x (must lie inside ``bounds``).
        y: Query y.
        bounds: The partition universe (anything
            :func:`~repro.geometry.kernels.as_anchor` accepts as a rect).

    Returns:
        The row index of the containing leaf.

    Raises:
        ValueError: If no leaf contains the point (outside the
            universe, or ``leaf_rects`` does not partition it).
    """
    b = as_anchor(bounds)
    if not (b[0] <= x <= b[2] and b[1] <= y <= b[3]):
        # Mirror SpatialIndex.leaf_for: outside the universe there is no
        # containing leaf, even though the east/north edge closure below
        # would otherwise capture points beyond the outer boundary.
        raise ValueError(f"no partition leaf contains ({x}, {y})")
    in_x = (x >= leaf_rects[:, 0]) & ((x < leaf_rects[:, 2]) | (leaf_rects[:, 2] >= b[2]))
    in_y = (y >= leaf_rects[:, 1]) & ((y < leaf_rects[:, 3]) | (leaf_rects[:, 3] >= b[3]))
    hits = np.flatnonzero(in_x & in_y)
    if hits.shape[0] == 0:
        raise ValueError(f"no partition leaf contains ({x}, {y})")
    return int(hits[0])


# Queries-per-slab for the batched binning broadcast: bounds the
# transient (chunk, n_leaves) boolean masks to a few MB regardless of
# batch size.
_LEAF_BIN_CHUNK = 2048


def leaf_ids_for_points(
    leaf_rects: np.ndarray, xs: np.ndarray, ys: np.ndarray, bounds
) -> np.ndarray:
    """Vectorized :func:`leaf_id_for_point` over a batch of points.

    Applies exactly the same containment rule per point — half-open
    ``[min, max)``, closed at the universe's east/north edges, first
    matching row wins — but instead of raising for an uncontained point
    it returns ``-1`` in that slot.  Batch estimators use the ``-1``
    marker to route out-of-universe queries to their fallback tier while
    the rest of the batch stays on the fast path.

    Args:
        leaf_rects: ``(n_leaves, 4)`` array from :func:`partition_bounds`.
        xs: ``(m,)`` query x coordinates.
        ys: ``(m,)`` query y coordinates.
        bounds: The partition universe (anything
            :func:`~repro.geometry.kernels.as_anchor` accepts as a rect).

    Returns:
        ``(m,)`` int64 array of containing-leaf row indices, ``-1``
        where no leaf contains the point.
    """
    b = as_anchor(bounds)
    xs = np.asarray(xs, dtype=float).reshape(-1)
    ys = np.asarray(ys, dtype=float).reshape(-1)
    m = xs.shape[0]
    out = np.full(m, -1, dtype=np.int64)
    if m == 0 or leaf_rects.shape[0] == 0:
        return out
    inside = (xs >= b[0]) & (xs <= b[2]) & (ys >= b[1]) & (ys <= b[3])
    # Precompute the universe-edge closures once; they are per-leaf.
    east_closed = leaf_rects[:, 2] >= b[2]
    north_closed = leaf_rects[:, 3] >= b[3]
    candidates = np.flatnonzero(inside)
    for start in range(0, candidates.shape[0], _LEAF_BIN_CHUNK):
        idx = candidates[start : start + _LEAF_BIN_CHUNK]
        cx = xs[idx, None]
        cy = ys[idx, None]
        in_x = (cx >= leaf_rects[None, :, 0]) & (
            (cx < leaf_rects[None, :, 2]) | east_closed[None, :]
        )
        in_y = (cy >= leaf_rects[None, :, 1]) & (
            (cy < leaf_rects[None, :, 3]) | north_closed[None, :]
        )
        hit = in_x & in_y
        any_hit = hit.any(axis=1)
        # argmax picks the first True column — the same "first hit"
        # tie-break as the scalar flatnonzero()[0].
        first = hit.argmax(axis=1)
        out[idx[any_hit]] = first[any_hit]
    return out


def staircase_estimate_batch(estimator, queries, ks, variant=None) -> np.ndarray:
    """``estimator.estimate_batch(queries, ks, variant)``, one leaf group at a time.

    The all-leaves binning pass, then one ``lookup_many`` pair, one
    ``Rect`` and one Eq. 1-2 kernel call per distinct home leaf, in
    ascending leaf order — so a bad row raises what the first offending
    group raises.  Input guards and the staleness check are the
    caller's; routing to the density fallback is reproduced.
    """
    pts, ks_arr = normalize_batch_args(queries, ks)
    variant = estimator.variant if variant is None else variant
    out = np.empty(pts.shape[0], dtype=float)
    bounds = estimator._aux.bounds
    xs, ys = pts[:, 0], pts[:, 1]
    in_bounds = (
        (xs >= bounds.x_min) & (xs <= bounds.x_max) & (ys >= bounds.y_min) & (ys <= bounds.y_max)
    )
    routed = (ks_arr > estimator.max_k) | ~in_bounds
    if routed.any():
        out[routed] = (
            estimator._fallback.estimate_batch(pts[routed], ks_arr[routed])
            if estimator._fallback
            else 0.0
        )
    fast = np.flatnonzero(~routed)
    leaf_ids = leaf_ids_for_points(estimator._leaf_rects, xs[fast], ys[fast], bounds)
    if np.any(leaf_ids < 0):
        j = int(fast[int(np.argmax(leaf_ids < 0))])
        raise ValueError(f"no partition leaf contains ({float(xs[j])}, {float(ys[j])})")
    for leaf_id in np.unique(leaf_ids).tolist():
        idx = fast[leaf_ids == leaf_id]
        c_center = estimator._center_catalogs[leaf_id].lookup_many(ks_arr[idx])
        if variant == "center":
            out[idx] = c_center
            continue
        c_corner = estimator._corner_catalogs[leaf_id].lookup_many(ks_arr[idx])
        rect = Rect(*estimator._leaf_rects[leaf_id])
        center = rect.center
        out[idx] = staircase_interpolate(
            xs[idx], ys[idx], center.x, center.y, rect.diagonal, c_center, c_corner
        )
    return out


def per_point_selects_cost(select_estimator, outer_points: np.ndarray, effective_k: int) -> float:
    """``engine.planner.per_point_selects_cost``, one scalar estimate per sampled row."""
    n = outer_points.shape[0]
    sample = np.random.default_rng(0).integers(0, n, size=min(SELECT_COST_SAMPLE, n))
    per_select = [
        select_estimator.estimate(
            Point(float(outer_points[i, 0]), float(outer_points[i, 1])), effective_k
        )
        for i in sample
    ]
    return float(np.mean(per_select)) * n


def assert_matches_gather(estimator, tree) -> None:
    """A Staircase estimator's block summary, points view and leaf table
    equal a gather over the whole of ``tree`` (its own partition).

    Every snapshot field, dtype included; the points view (when the
    estimator holds one); the leaf rects, keys and per-leaf counts.
    """
    gathered = IndexSnapshot.from_index(tree)
    for field in dataclasses.fields(IndexSnapshot):
        got, want = getattr(estimator._snapshot, field.name), getattr(gathered, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), field.name
        else:
            assert got == want, field.name
    if estimator._view is not None:
        view = BlockPointsView.from_blocks(tree.blocks)
        assert np.array_equal(estimator._view.points, view.points)
        assert np.array_equal(estimator._view.offsets, view.offsets)
    leaves = partition_bounds(tree)
    assert np.array_equal(estimator._leaf_rects, leaves)
    assert estimator._leaf_keys == region_keys(leaves)
    if estimator._leaf_counts is not None:
        counts = [len(leaf.points_list) for leaf in tree.leaves]
        assert estimator._leaf_counts.tolist() == counts
    assert len(estimator._center_catalogs) == leaves.shape[0]


def count_below_complex(lengths: np.ndarray, dists: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``R[r, i]`` = row ``r``'s values strictly below ``thresholds[r, i]``
    (rising along each row; row ``r`` owns the next ``lengths[r]`` values):
    one ``searchsorted`` of every value into complex ``row + 1j * threshold``
    keys, a ``bincount`` and a ``cumsum``."""
    q, c = thresholds.shape
    rows = np.repeat(np.arange(q), lengths)
    keys = np.empty((q, c), dtype=complex)
    keys.real, keys.imag = np.arange(q)[:, None], thresholds
    values = np.empty(dists.shape[0], dtype=complex)
    values.real, values.imag = rows, dists
    # Row r's value lands at r * c + #{thresholds <= dist}; + r skips
    # one overflow bin per row.
    bins = np.searchsorted(keys.ravel(), values, side="right") + rows
    counts = np.bincount(bins, minlength=q * (c + 1)).reshape(q, c + 1)
    return np.cumsum(counts[:, :c], axis=1)


def full_locality_size_profile(inner, outer_rect, max_k: int) -> list[tuple[int, int, int]]:
    """Procedure 2 with every inner block in stable ``(MINDIST, tie rank)``
    order, MAXDIST of every block and a cumulative pass over all of them."""
    snap = as_snapshot(inner)
    if snap.n_blocks == 0:
        return []
    anchor = as_anchor(outer_rect)
    order, mindists = mindist_argsort(anchor, snap.rects, tie_order=snap.tie_order)
    cumulative = np.cumsum(snap.counts[order])
    running_max = np.maximum.accumulate(maxdist_rects(anchor, snap.rects)[order])
    sizes = np.searchsorted(mindists, running_max, side="right")
    profile: list[tuple[int, int, int]] = []
    k_reached = 0
    for i in range(order.shape[0]):
        k_end = int(cumulative[i])
        if k_end <= k_reached:
            continue
        size = int(sizes[i])
        if profile and profile[-1][2] == size:
            profile[-1] = (profile[-1][0], k_end, size)
        else:
            profile.append((k_reached + 1, k_end, size))
        k_reached = k_end
        if k_reached >= max_k:
            break
    return profile


def full_sort_locality(inner, outer_rect, k: int) -> tuple[np.ndarray, float, float]:
    """``(ids, mark, beta)`` of one locality from every inner block in stable
    ``(MINDIST, tie rank)`` order and the MAXDIST of every block."""
    snap = as_snapshot(inner)
    if snap.n_blocks == 0:
        return np.empty(0, dtype=np.int64), np.inf, np.inf
    anchor = as_anchor(outer_rect)
    order, mindists = mindist_argsort(anchor, snap.rects, tie_order=snap.tie_order)
    first_enough = int(np.searchsorted(np.cumsum(snap.counts[order]), k, side="left"))
    if first_enough >= order.shape[0]:
        return snap.block_ids[order], np.inf, np.inf  # fewer than k inner points
    marked = float(maxdist_rects(anchor, snap.rects)[order][: first_enough + 1].max())
    size = int(np.searchsorted(mindists, marked, side="right"))
    if size == order.shape[0]:
        return snap.block_ids[order], marked, np.inf
    # The locality join's β: the partition of the unsorted MINDIST row.
    beta = float(np.partition(mindist_rects(anchor, snap.rects), size)[size])
    return snap.block_ids[order[:size]], marked, beta


def _tableau_marks(snap: IndexSnapshot, outer_rects, k: int):
    """Per row of the ``(m, n)`` tableau: the sorted MINDISTs and the mark
    at the first prefix reaching ``k`` (NaN where none does)."""
    mindists = mindist_rects_batch(outer_rects, snap.rects)
    maxdists = maxdist_rects_batch(outer_rects, snap.rects)
    order = tie_stable_argsort(mindists, snap.tie_order)
    sorted_min = np.take_along_axis(mindists, order, axis=1)
    cum_counts = np.cumsum(snap.counts[order], axis=1)
    running_max = np.maximum.accumulate(np.take_along_axis(maxdists, order, axis=1), axis=1)
    first_enough = (cum_counts < k).sum(axis=1)
    marks = np.full(outer_rects.shape[0], np.nan)
    reachable = np.flatnonzero(first_enough < snap.n_blocks)
    marks[reachable] = running_max[reachable, first_enough[reachable]]
    return sorted_min, marks


def tableau_locality_sizes(inner, outer_rects, k: int) -> np.ndarray:
    """Locality sizes of many outer rects from one MINDIST/MAXDIST tableau."""
    snap = as_snapshot(inner)
    outer_rects = np.asarray(outer_rects, dtype=float).reshape(-1, 4)
    if snap.n_blocks == 0 or outer_rects.shape[0] == 0:
        return np.zeros(outer_rects.shape[0], dtype=np.int64)
    sorted_min, marks = _tableau_marks(snap, outer_rects, k)
    sizes = (sorted_min <= marks[:, None]).sum(axis=1)
    sizes[np.isnan(marks)] = snap.n_blocks  # fewer than k inner points: all
    return sizes


def locality_coverage_radii(inner, outer_rects, max_k: int) -> np.ndarray:
    """Each outer rect's mark at ``max_k`` from the tableau (``inf`` where
    the inner holds fewer than ``max_k`` points)."""
    snap = as_snapshot(inner)
    outer_rects = np.asarray(outer_rects, dtype=float).reshape(-1, 4)
    if snap.n_blocks == 0 or outer_rects.shape[0] == 0:
        return np.full(outer_rects.shape[0], np.inf)
    __, marks = _tableau_marks(snap, outer_rects, max_k)
    return np.where(np.isnan(marks), np.inf, marks)


def partition_row_ids(points: np.ndarray, tree) -> list[np.ndarray]:
    """Each block's input rows of ``tree`` (built over ``points``): the
    quadtree's partition run again over ``(x, y, row)`` rows."""
    rows = np.column_stack([points, np.arange(points.shape[0], dtype=float)])
    found: list[np.ndarray] = []

    def recurse(rows: np.ndarray, rect, depth: int) -> None:
        if rows.shape[0] <= tree.capacity or depth >= tree._max_depth:
            if rows.shape[0]:
                found.append(rows[:, 2].astype(np.int64))
            return
        cx = (rect.x_min + rect.x_max) / 2.0
        cy = (rect.y_min + rect.y_max) / 2.0
        west = rows[:, 0] < cx
        south = rows[:, 1] < cy
        for mask, quadrant in zip(
            (west & south, ~west & south, west & ~south, ~west & ~south),
            rect.quadrants(),
        ):
            recurse(rows[mask], quadrant, depth + 1)

    if points.shape[0]:
        recurse(rows, tree.bounds, 0)
    return found
