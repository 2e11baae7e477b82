"""Locality computation for locality-based k-NN-Join processing.

Section 4 (after Sankaranarayanan et al.): the *locality* of an outer
block ``b_o`` is the minimal MINDIST-prefix of inner blocks guaranteed
to contain the k nearest neighbors of *every* point in ``b_o``.  It is
computed by scanning inner blocks in MINDIST order from ``b_o``,
accumulating their counts until the sum reaches ``k``, marking the
highest MAXDIST ``M`` among the accumulated blocks, and continuing the
scan until a block with MINDIST greater than ``M`` appears.  Every
encountered block (MINDIST <= M) belongs to the locality.

The join cost the paper estimates is the total number of blocks scanned:
the sum of locality sizes over all outer blocks (:func:`knn_join_cost`).

All functions here consume the columnar block summary — an
:class:`~repro.index.snapshot.IndexSnapshot`, or anything
:func:`~repro.index.snapshot.as_snapshot` can normalize (a raw
:class:`~repro.index.base.SpatialIndex`) — and compute with the
vectorized :mod:`repro.geometry.kernels`.  The outer anchor may be a
:class:`~repro.geometry.rect.Rect` or bare ``(x_min, y_min, x_max,
y_max)`` bounds.

:func:`locality_size_profile` computes the locality-size-vs-k staircase
in one pass — the semantics of the paper's Procedure 2 (see DESIGN.md §5
for the pseudocode discrepancy we resolve in favour of the worked
example): with inner blocks ``b_1..b_n`` in MINDIST order, cumulative
counts ``S_i`` and running maxima ``M_i = max(MAXDIST(b_1..b_i))``, the
locality size for every ``k`` in ``[S_{i-1}+1, S_i]`` is
``#{b : MINDIST(b) <= M_i}``; consecutive equal-cost ranges are merged
(the paper's redundant-entry elimination).  It orders only a window of
the nearest blocks by MINDIST, certified when the mark ``M`` at
``max_k`` is strictly below every MINDIST outside it (the bounds-only
test: a block whose MINDIST exceeds a certified distance is never
read), and grows the window up to every block otherwise.

Zero-count-block semantics
--------------------------
:func:`locality_block_indices` (the per-k query path) and
:func:`locality_size_profile` (the all-k staircase path) must agree for
every ``k`` — the profile is the Catalog-Merge/Virtual-Grid
preprocessing input, while the per-k path is the oracle the tests
compare against.  A snapshot gathered from an index carries no
zero-count blocks (:meth:`~repro.index.snapshot.IndexSnapshot.from_index`
walks non-empty blocks only, per DESIGN.md §5).  One built from bare
arrays *may*, and both paths handle them identically: a zero-count
block never advances the cumulative sum, but while it sits inside the
accumulating prefix its MAXDIST still raises the running mark ``M``
(the per-k path takes the max over the whole prefix up to the first
count-reaching block; the staircase path folds it into the running
maximum and simply emits no k-range of its own).  The agreement is
property-tested in ``tests/test_perf_parallel.py``
(``test_locality_profile_matches_per_k``) and the zero-count edge case
in ``tests/test_snapshot_equivalence.py``.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.kernels import (
    as_anchor,
    maxdist_rects,
    maxdist_rects_batch,
    mindist_argsort,
    mindist_rects,
    mindist_rects_batch,
    tie_stable_argsort,
)
from repro.index.snapshot import IndexSnapshot, as_snapshot

# The first window of locality_size_profile, in multiples of the blocks
# that hold max_k points on average (plus 8), and its growth factor.
_FIRST_WINDOW_PER_C = 8
_WINDOW_GROWTH = 4


def _outer_anchor(outer_rect) -> np.ndarray:
    """Normalize the outer block to ``(x_min, y_min, x_max, y_max)``."""
    anchor = as_anchor(outer_rect)
    if anchor.shape[0] != 4:
        raise ValueError(
            f"outer block must be rect bounds (4,), got shape {anchor.shape}"
        )
    return anchor


def locality_block_indices(inner, outer_rect, k: int) -> np.ndarray:
    """Return the inner-block indices forming the locality of ``outer_rect``.

    Args:
        inner: Block summary of the inner relation — an
            :class:`~repro.index.snapshot.IndexSnapshot` or anything
            :func:`~repro.index.snapshot.as_snapshot` accepts.
        outer_rect: Extent of the outer block (``Rect`` or bounds).
        k: The join's k.

    Returns:
        Block indices in MINDIST order, expressed as positions in the
        underlying index's block list (the snapshot's ``block_ids``), so
        the result is independent of the snapshot's physical layout.
        When the inner relation holds fewer than ``k`` points, every
        inner block is in the locality.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    snap = as_snapshot(inner)
    if snap.n_blocks == 0:
        return np.empty(0, dtype=np.int64)
    anchor = _outer_anchor(outer_rect)
    order, mindists = mindist_argsort(anchor, snap.rects, tie_order=snap.tie_order)
    counts = snap.counts[order]
    cumulative = np.cumsum(counts)
    first_enough = int(np.searchsorted(cumulative, k, side="left"))
    if first_enough >= order.shape[0]:
        return snap.block_ids[order]  # fewer than k inner points
    maxdists = maxdist_rects(anchor, snap.rects)[order]
    marked = float(maxdists[: first_enough + 1].max())
    # Scanning continues until a block of MINDIST > marked appears, so
    # the locality is the prefix with MINDIST <= marked.
    size = int(np.searchsorted(mindists, marked, side="right"))
    return snap.block_ids[order[:size]]


def locality_size(inner, outer_rect, k: int) -> int:
    """Number of inner blocks in the locality of ``outer_rect`` for ``k``."""
    return int(locality_block_indices(inner, outer_rect, k).shape[0])


def knn_join_cost(outer, inner, k: int) -> int:
    """Exact locality-join cost: total inner blocks scanned.

    The ground truth of every join estimator: what the engine's
    :class:`~repro.engine.physical.LocalityJoinOperator` scans without
    a predicate.

    Args:
        outer: Index of the outer relation ``R``.
        inner: Index of the inner relation ``S``.
        k: Number of neighbors per outer point.

    Returns:
        ``sum over outer blocks of |locality(block, k)|``.
    """
    inner_snapshot = IndexSnapshot.from_index(inner)
    return sum(locality_size(inner_snapshot, block.rect, k) for block in outer.blocks)


def locality_sizes(inner, outer_rects, k: int) -> np.ndarray:
    """Locality sizes of many outer blocks against one inner summary.

    The batched sibling of :func:`locality_size`: one ``(m, n)``
    MINDIST/MAXDIST tableau answers every outer block at once, row-wise
    identical to the per-rect path (``mindist_rects_batch`` applies the
    same ufunc chain as ``mindist_rects``).

    Args:
        inner: Block summary of the inner relation.
        outer_rects: ``(m, 4)`` array of outer block bounds.
        k: The join's k.

    Returns:
        ``(m,)`` int64 array of locality sizes.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    snap = as_snapshot(inner)
    outer_rects = np.asarray(outer_rects, dtype=float).reshape(-1, 4)
    m = outer_rects.shape[0]
    n = snap.n_blocks
    if n == 0 or m == 0:
        return np.zeros(m, dtype=np.int64)
    mindists = mindist_rects_batch(outer_rects, snap.rects)
    maxdists = maxdist_rects_batch(outer_rects, snap.rects)
    order = tie_stable_argsort(mindists, snap.tie_order)
    rows = np.arange(m)[:, None]
    sorted_min = np.take_along_axis(mindists, order, axis=1)
    cum_counts = np.cumsum(snap.counts[order], axis=1)
    running_max = np.maximum.accumulate(
        np.take_along_axis(maxdists, order, axis=1), axis=1
    )
    # Per row: index of the first prefix whose cumulative count reaches
    # k (== searchsorted-left on the non-decreasing cumulative sums).
    first_enough = (cum_counts < k).sum(axis=1)
    sizes = np.full(m, n, dtype=np.int64)  # < k inner points: everything
    reachable = first_enough < n
    if np.any(reachable):
        marked = running_max[rows[reachable, 0], first_enough[reachable]]
        # Prefix with MINDIST <= marked (== searchsorted-right on the
        # sorted row), counted with one comparison per cell.
        sizes[reachable] = (
            sorted_min[reachable] <= marked[:, None]
        ).sum(axis=1)
    return sizes


def locality_coverage_radii(inner, outer_rects, max_k: int) -> np.ndarray:
    """Mutation-visibility radius of each outer block's locality profile.

    For one outer block, the locality staircase up to ``max_k`` is
    computed from MINDIST-order prefixes ending no later than the first
    block whose cumulative count reaches ``max_k``; every quantity it
    reads (prefix membership, running-MAXDIST marks, and the
    ``MINDIST <= mark`` prefix counts) concerns only inner blocks with
    ``MINDIST <= C`` where ``C`` is the running-MAXDIST at that first
    count-reaching block.  Therefore mutations confined to regions with
    ``MINDIST(outer, region) > C`` leave
    :func:`locality_size_profile` — and any catalog derived from it —
    bit-for-bit unchanged.  The maintained join estimators use this to
    skip re-deriving temporaries whose coverage disc missed every dirty
    region.

    Args:
        inner: Block summary of the inner relation.
        outer_rects: ``(m, 4)`` array of outer block bounds.
        max_k: Largest k the derived profiles must cover.

    Returns:
        ``(m,)`` float array of radii; ``inf`` where the inner relation
        holds fewer than ``max_k`` points (every block participates, so
        any mutation anywhere may be visible).

    Raises:
        ValueError: If ``max_k < 1``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(inner)
    outer_rects = np.asarray(outer_rects, dtype=float).reshape(-1, 4)
    m = outer_rects.shape[0]
    n = snap.n_blocks
    out = np.full(m, np.inf, dtype=float)
    if n == 0 or m == 0:
        return out
    # Chunk the (m, n) tableau so memory stays bounded for large fleets
    # of outer blocks (mirrors the slab size used in perf.parallel).
    slab = 256
    for start in range(0, m, slab):
        chunk = outer_rects[start : start + slab]
        mindists = mindist_rects_batch(chunk, snap.rects)
        maxdists = maxdist_rects_batch(chunk, snap.rects)
        order = tie_stable_argsort(mindists, snap.tie_order)
        cum_counts = np.cumsum(snap.counts[order], axis=1)
        running_max = np.maximum.accumulate(
            np.take_along_axis(maxdists, order, axis=1), axis=1
        )
        first_enough = (cum_counts < max_k).sum(axis=1)
        reachable = first_enough < n
        if np.any(reachable):
            rows = np.nonzero(reachable)[0]
            out[start + rows] = running_max[rows, first_enough[rows]]
    return out


def locality_size_profile(
    inner, outer_rect, max_k: int
) -> list[tuple[int, int, int]]:
    """Locality-size-vs-k staircase for one outer block (Procedure 2).

    Read from a window of the ``w`` nearest inner blocks by MINDIST,
    ordered by ``(MINDIST, canonical tie rank)``.  The window is
    certified when the running-MAXDIST mark at the prefix that reaches
    ``max_k`` points is strictly below the smallest MINDIST outside it:
    every block the profile counts (MINDIST <= a mark) is then inside,
    so the profile is the full scan's.  Otherwise ``w`` grows by
    ``_WINDOW_GROWTH`` up to every block, where nothing is outside.

    Args:
        inner: Block summary of the inner relation.
        outer_rect: Extent of the outer block (``Rect`` or bounds).
        max_k: Largest k the profile must cover.

    Returns:
        Contiguous ``(k_start, k_end, locality_size)`` entries covering
        ``[1, min(max_k, total inner points)]``, with consecutive
        equal-size entries merged.

    Raises:
        ValueError: If ``max_k < 1``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(inner)
    n = snap.n_blocks
    if n == 0:
        return []
    anchor = _outer_anchor(outer_rect)
    tie = snap.tie_order
    mindists = mindist_rects(anchor, snap.rects)
    if tie is not None:
        mindists = mindists[tie]  # by canonical position: a block's tie rank
    w = min(n, _FIRST_WINDOW_PER_C * (int(max_k * n / max(1, snap.total_count)) + 8))
    while True:
        if w < n:
            nearest = np.argpartition(mindists, w)
            window, outside = nearest[:w], mindists[nearest[w]]
        else:
            window, outside = np.arange(n), np.inf
        window = window[np.lexsort((window, mindists[window]))]
        rows = window if tie is None else tie[window]
        cumulative = np.cumsum(snap.counts[rows])
        reach = int(np.searchsorted(cumulative, max_k, side="left"))
        if reach < w or w == n:
            running_max = np.maximum.accumulate(
                maxdist_rects(anchor, snap.rects[rows[: reach + 1]])
            )
            if w == n or running_max[-1] < outside:
                break
        w = min(n, _WINDOW_GROWTH * w)
    # For the prefix ending at block i, the locality size is the number
    # of blocks with MINDIST <= running_max[i]; the window's mindists are
    # sorted so a single vectorized searchsorted covers all prefixes.
    sizes = np.searchsorted(mindists[window], running_max, side="right")

    profile: list[tuple[int, int, int]] = []
    k_reached = 0
    for k_end, size in zip(cumulative.tolist(), sizes.tolist()):
        if k_end <= k_reached:
            continue  # zero-count block: raises the mark, adds no range
        if profile and profile[-1][2] == size:
            # Redundant-entry elimination: extend the previous range.
            k_start, __, __ = profile[-1]
            profile[-1] = (k_start, k_end, size)
        else:
            profile.append((k_reached + 1, k_end, size))
        k_reached = k_end
    return profile
