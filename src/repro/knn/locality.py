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

Every locality is read from one scan, :func:`_window`: it orders only a
window of the nearest inner blocks by ``(MINDIST, canonical tie rank)``,
certified when the running-MAXDIST mark at the block that reaches ``k``
is strictly below every MINDIST outside it (the bounds-only test: a
block whose MINDIST exceeds a certified distance is never read), and
grows the window up to every block otherwise.  :func:`locality` reads it
at one ``k``; :func:`covered_locality_profile` reads it at every prefix
up to ``max_k`` — the semantics of the paper's Procedure 2 (see
DESIGN.md §5 for the pseudocode discrepancy we resolve in favour of the
worked example): with inner blocks ``b_1..b_n`` in MINDIST order,
cumulative counts ``S_i`` and running maxima ``M_i =
max(MAXDIST(b_1..b_i))``, the locality size for every ``k`` in
``[S_{i-1}+1, S_i]`` is ``#{b : MINDIST(b) <= M_i}``; consecutive
equal-cost ranges are merged (the paper's redundant-entry elimination).

A snapshot gathered from an index carries no zero-count blocks; one
built from bare arrays may.  A zero-count block never advances the
cumulative sum, but while it sits inside the accumulating prefix its
MAXDIST still raises the running mark; the profile emits no k-range of
its own for it.  Because the per-k and the all-k reads share the scan,
they agree by construction; ``tests/test_knn_locality.py`` holds both to
the full-sort oracles of ``tests/reference_builds.py``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.geometry.kernels import as_anchor, maxdist_rects, mindist_rects
from repro.index.snapshot import as_snapshot

# The first window of a scan, in multiples of the blocks that hold k
# points on average (plus 8), and its growth factor.
_FIRST_WINDOW_PER_C = 8
_WINDOW_GROWTH = 4

Profile = list[tuple[int, int, int]]


class Locality(NamedTuple):
    """The locality of one outer block at one ``k``.

    Attributes:
        ids: Inner block ids (the snapshot's ``block_ids``) in scan
            order — ``(MINDIST, canonical tie rank)`` — so the result is
            independent of the snapshot's physical layout.
        mark: The running MAXDIST at the block whose cumulative count
            reaches ``k``; ``inf`` when the inner holds fewer than ``k``
            points.
        beta: MINDIST of the nearest inner block outside the locality;
            ``inf`` when the locality holds every block.
    """

    ids: np.ndarray
    mark: float
    beta: float


class _Window(NamedTuple):
    rows: np.ndarray  # physical rows in (MINDIST, canonical tie rank) order
    mindists: np.ndarray  # their MINDISTs, ascending
    cumulative: np.ndarray  # cumulative counts along ``rows``
    running_max: np.ndarray  # running MAXDIST up to the block reaching k
    outside: float  # MINDIST of the first block outside (inf: none)


def _outer_anchor(outer_rect) -> np.ndarray:
    """Normalize the outer block to ``(x_min, y_min, x_max, y_max)``."""
    anchor = as_anchor(outer_rect)
    if anchor.shape[0] != 4:
        raise ValueError(
            f"outer block must be rect bounds (4,), got shape {anchor.shape}"
        )
    return anchor


def _window(snap, anchor: np.ndarray, k: int) -> _Window:
    """The certified window of Procedure 2 for one outer rect at ``k``.

    Orders the ``w`` nearest inner blocks of a non-empty snapshot by
    ``(MINDIST, canonical tie rank)``.  The window is certified when the
    running-MAXDIST mark at the prefix that reaches ``k`` points is
    strictly below the smallest MINDIST outside it: every block a
    locality counts (MINDIST <= a mark) is then inside, so the window is
    the full scan's prefix.  Otherwise ``w`` grows by ``_WINDOW_GROWTH``
    up to every block, where nothing is outside.
    """
    n, tie = snap.n_blocks, snap.tie_order
    mindists = mindist_rects(anchor, snap.rects)
    if tie is not None:
        mindists = mindists[tie]  # by canonical position: a block's tie rank
    w = min(n, _FIRST_WINDOW_PER_C * (int(k * n / max(1, snap.total_count)) + 8))
    while True:
        if w < n:
            nearest = np.argpartition(mindists, w)
            window, outside = nearest[:w], float(mindists[nearest[w]])
        else:
            window, outside = np.arange(n), math.inf
        window = window[np.lexsort((window, mindists[window]))]
        rows = window if tie is None else tie[window]
        cumulative = np.cumsum(snap.counts[rows])
        reach = int(np.searchsorted(cumulative, k, side="left"))
        if reach < w or w == n:
            running_max = np.maximum.accumulate(
                maxdist_rects(anchor, snap.rects[rows[: reach + 1]])
            )
            if w == n or running_max[-1] < outside:
                return _Window(rows, mindists[window], cumulative, running_max, outside)
        w = min(n, _WINDOW_GROWTH * w)


def locality(inner, outer_rect, k: int) -> Locality:
    """The locality of ``outer_rect`` for ``k``, with its mark and β.

    Args:
        inner: Block summary of the inner relation — an
            :class:`~repro.index.snapshot.IndexSnapshot` or anything
            :func:`~repro.index.snapshot.as_snapshot` accepts.
        outer_rect: Extent of the outer block (``Rect`` or bounds).
        k: The join's k.

    Returns:
        A :class:`Locality`.  When the inner relation holds fewer than
        ``k`` points, every inner block is in it.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    snap = as_snapshot(inner)
    if snap.n_blocks == 0:
        return Locality(np.empty(0, dtype=np.int64), math.inf, math.inf)
    win = _window(snap, _outer_anchor(outer_rect), k)
    if win.cumulative[-1] < k:  # fewer than k inner points: every block
        return Locality(snap.block_ids[win.rows], math.inf, math.inf)
    mark = float(win.running_max[-1])
    # Scanning continues until a block of MINDIST > mark appears, so the
    # locality is the prefix with MINDIST <= mark.
    size = int(np.searchsorted(win.mindists, mark, side="right"))
    beta = float(win.mindists[size]) if size < win.rows.shape[0] else win.outside
    return Locality(snap.block_ids[win.rows[:size]], mark, beta)


def locality_block_indices(inner, outer_rect, k: int) -> np.ndarray:
    """The inner block ids forming the locality of ``outer_rect``, in
    scan order (:attr:`Locality.ids`)."""
    return locality(inner, outer_rect, k).ids


def locality_size(inner, outer_rect, k: int) -> int:
    """Number of inner blocks in the locality of ``outer_rect`` for ``k``."""
    return int(locality(inner, outer_rect, k).ids.shape[0])


def locality_sizes(inner, outer_rects, k: int) -> np.ndarray:
    """Locality sizes of many outer blocks against one inner summary.

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
    return np.array(
        [locality(snap, row, k).ids.shape[0] for row in outer_rects], dtype=np.int64
    )


def knn_join_cost(outer, inner, k: int) -> int:
    """Exact locality-join cost: total inner blocks scanned.

    The ground truth of every join estimator: what the engine's
    :class:`~repro.engine.physical.LocalityJoinOperator` scans without
    a predicate.

    Args:
        outer: Index of the outer relation ``R``.
        inner: Block summary of the inner relation ``S`` (an index or
            snapshot).
        k: Number of neighbors per outer point.

    Returns:
        ``sum over outer blocks of |locality(block, k)|``.
    """
    inner_snapshot = as_snapshot(inner)
    return sum(locality_size(inner_snapshot, block.rect, k) for block in outer.blocks)


def covered_locality_profile(inner, outer_rect, max_k: int) -> tuple[Profile, float]:
    """Locality-size-vs-k staircase of one outer block, with its coverage.

    Procedure 2: the scan of :func:`locality` at ``max_k``, read at
    every prefix.  For the prefix ending at block ``i`` the locality
    size is the number of window blocks with MINDIST <= the running
    mark there.

    The coverage radius is the mark at ``max_k``: every quantity the
    profile reads concerns inner blocks with MINDIST <= it, so mutations
    confined to regions farther from the outer block leave the profile —
    and any catalog derived from it — bit-for-bit unchanged.  The
    maintained join estimators skip re-deriving a profile whose coverage
    disc missed every dirty region.

    Args:
        inner: Block summary of the inner relation.
        outer_rect: Extent of the outer block (``Rect`` or bounds).
        max_k: Largest k the profile must cover.

    Returns:
        ``(profile, radius)``: contiguous ``(k_start, k_end,
        locality_size)`` entries covering ``[1, min(max_k, total inner
        points)]`` with consecutive equal-size entries merged, and the
        radius (``inf`` where the inner relation holds fewer than
        ``max_k`` points: any mutation anywhere may be visible).

    Raises:
        ValueError: If ``max_k < 1``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    snap = as_snapshot(inner)
    if snap.n_blocks == 0:
        return [], math.inf
    win = _window(snap, _outer_anchor(outer_rect), max_k)
    sizes = np.searchsorted(win.mindists, win.running_max, side="right")
    profile: Profile = []
    k_reached = 0
    for k_end, size in zip(win.cumulative.tolist(), sizes.tolist()):
        if k_end <= k_reached:
            continue  # zero-count block: raises the mark, adds no range
        if profile and profile[-1][2] == size:
            # Redundant-entry elimination: extend the previous range.
            profile[-1] = (profile[-1][0], k_end, size)
        else:
            profile.append((k_reached + 1, k_end, size))
        k_reached = k_end
    covered = win.cumulative[-1] >= max_k
    return profile, float(win.running_max[-1]) if covered else math.inf


def locality_size_profile(inner, outer_rect, max_k: int) -> Profile:
    """Locality-size-vs-k staircase for one outer block (Procedure 2):
    the profile of :func:`covered_locality_profile`."""
    return covered_locality_profile(inner, outer_rect, max_k)[0]
