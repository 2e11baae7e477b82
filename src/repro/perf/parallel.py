"""Batched and multi-process preprocessing fan-out.

Every anchor's cost profile (Procedure 1) and every outer block's
locality profile (:func:`~repro.knn.locality.locality_size_profile`) is
independent of the others.  The Staircase, Catalog-Merge and
Virtual-Grid estimators share:

* :func:`profile_staircases` — Procedure 1 for many anchors at once, in
  fixed-shape rounds over spatial groups of anchors, as
  :class:`Staircases` (:func:`select_cost_profiles`: the same pass as
  ``(profile, C)`` tuples).  It is the build's one cost path, equal byte
  for byte to the scalar per-anchor scan of ``tests/reference_builds.py``.
* :func:`locality_size_profiles` — ordered many-rect fan-out of
  Procedure 2.

``workers=N`` runs either on a process pool whose initializer ships the
pickle-cheap :class:`~repro.index.snapshot.IndexSnapshot` (and the
points of a :class:`~repro.index.base.BlockPointsView`) once, so each
chunk message carries only anchors; ``0``/``1`` (the default) stays
in-process, with identical results.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.geometry import Point
from repro.geometry.kernels import as_anchor, maxdist_rects_batch, mindist_rects_batch
from repro.index.base import BlockPointsView, concat_ranges
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.browse import WINDOW_SLACK, certified_bound, mindist_gaps
from repro.knn.locality import locality_size_profile

Profile = list[tuple[int, int, int]]
#: A select-cost profile with its coverage radius.
CoveredProfile = tuple[Profile, float]

# Chunks per worker: enough to smooth out uneven anchor costs without
# drowning the pool in message overhead.
_CHUNKS_PER_WORKER = 4

# Cells per MINDIST tableau and points per distance gather: each bounds
# one transient array of the batch pass to ~128 KB, whatever the number
# of anchors, blocks or ``max_k``.  Larger slabs save little (a tableau
# twice this size saved ≈ 4 % of a 60k-point build) but lift a small
# process's peak RSS.
_TABLEAU_CELLS = 1 << 14
_GATHER_POINTS = 1 << 12

# Grouping pays only where a group's candidates are a small part of the
# index.  On OSM-like builds a group's candidate set spans 10-15 times
# the first round's candidate count c; below 32 c blocks it holds most
# of the index, and grouping lost to one pass over every block (8 %
# slower at 128 blocks, c = 19; 18 % at 176 blocks, c = 13, where every
# group's candidates were 160-176 blocks), while it won 4-21 % at
# 448-716 blocks and 1.8x at 2,688.
_GROUPED_BLOCKS_PER_C = 32

# How far past its box's max_k-point MAXDIST a group's candidates reach.
# Nearer 1 means fewer candidates and more anchors going round again
# over every block.  On OSM-like and uniform data 1.1 already certified
# every anchor at max_k 4-1024, and 1.5 read about a sixth more cells
# than 1.25.
_SLACK = 1.25


class Staircases:
    """The Procedure 1 staircases of many anchors, by anchor slot.

    Slot ``i`` owns steps ``starts[i]:ends[i]``: after ``costs[j]``
    blocks, ``k_ends[j]`` points are retrievable.  ``radii[i]`` is its
    coverage radius; ``costs`` has the narrowest unsigned dtype that
    holds a block count.  :meth:`put` replaces slots in place, so an
    update copies only the steps it brings.
    """

    __slots__ = ("starts", "ends", "k_ends", "costs", "radii", "used")

    def __init__(self, offsets, k_ends: np.ndarray, costs: np.ndarray, radii: np.ndarray) -> None:
        offsets = np.asarray(offsets, dtype=np.int64)
        self.starts, self.ends = offsets[:-1].copy(), offsets[1:].copy()
        self.k_ends, self.costs, self.radii = k_ends, costs, radii
        self.used = k_ends.shape[0]

    def _steps(self, slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The steps of ``slots`` laid end to end, and each slot's count."""
        lengths = self.ends[slots] - self.starts[slots]
        return concat_ranges(self.starts[slots], lengths), lengths

    def take(self, slots: np.ndarray) -> "Staircases":
        """The staircases of ``slots``, in that order, laid end to end."""
        steps, lengths = self._steps(slots)
        offsets = np.zeros(slots.shape[0] + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        return Staircases(offsets, self.k_ends[steps], self.costs[steps], self.radii[slots])

    def dense(self, slots: np.ndarray, max_k: int) -> np.ndarray:
        """``(len(slots), max_k)`` costs at every ``k`` in ``[1, max_k]``,
        each staircase closed at ``max_k`` the way Procedure 1 pads and
        truncates a catalog.  The index must hold a point."""
        steps, lengths = self._steps(slots)
        k_ends = self.k_ends[steps]
        last = np.cumsum(lengths) - 1
        k_ends[last] = max_k
        runs = np.diff(k_ends, prepend=0)
        runs[last[:-1] + 1] = k_ends[last[:-1] + 1]
        return np.repeat(self.costs[steps], runs).reshape(slots.shape[0], max_k)

    def put(self, slots: np.ndarray, staircases: "Staircases") -> None:
        """Give ``slots`` the slots of ``staircases``, in order (slots past
        the last extend the table), writing their used steps after ours;
        if they do not fit, the live steps are laid out afresh first."""
        grow = int(slots.max()) + 1 - self.radii.shape[0]
        if grow > 0:
            pad = np.zeros(grow, dtype=np.int64)
            self.starts, self.ends = np.concatenate([self.starts, pad]), np.concatenate([self.ends, pad])
            self.radii = np.concatenate([self.radii, np.empty(grow)])
        steps = staircases.used
        dtype = np.promote_types(self.costs.dtype, staircases.costs.dtype)
        if self.used + steps > self.k_ends.shape[0] or dtype != self.costs.dtype:
            live = self.take(np.arange(self.radii.shape[0]))
            self.starts, self.ends, self.used = live.starts, live.ends, live.used
            self.k_ends = np.empty(2 * (self.used + steps), dtype=np.int64)
            self.costs = np.empty(self.k_ends.shape[0], dtype=dtype)
            self.k_ends[: self.used], self.costs[: self.used] = live.k_ends, live.costs
        lo, self.used = self.used, self.used + steps
        self.k_ends[lo : self.used] = staircases.k_ends[:steps]
        self.costs[lo : self.used] = staircases.costs[:steps]
        self.starts[slots], self.ends[slots] = lo + staircases.starts, lo + staircases.ends
        self.radii[slots] = staircases.radii


def resolve_workers(workers: int | None) -> int:
    """Normalize a ``workers`` argument to a non-negative int.

    ``None`` (the default everywhere) and ``0``/``1`` all mean the
    serial in-process path; values above 1 enable the process pool.

    Raises:
        ValueError: If ``workers`` is negative.
    """
    if workers is None:
        return 0
    workers = int(workers)
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def _rect_rows(rects) -> np.ndarray:
    """Normalize a rect sequence (Rects, tuples, or ndarray) to ``(m, 4)``."""
    if isinstance(rects, np.ndarray):
        return np.asarray(rects, dtype=float).reshape(-1, 4)
    if len(rects) == 0:
        return np.empty((0, 4), dtype=float)
    return np.stack([as_anchor(r) for r in rects])


# ----------------------------------------------------------------------
# Worker-process state.  The pool initializer receives the pickled
# IndexSnapshot (and points view) once per process; chunk messages then
# carry only the anchor coordinates.
# ----------------------------------------------------------------------
_WORKER_STATE: dict = {}


def _init_select_worker(
    snapshot: IndexSnapshot,
    points: np.ndarray,
    offsets: np.ndarray,
    max_k: int,
) -> None:
    _WORKER_STATE["summary"] = snapshot
    _WORKER_STATE["view"] = BlockPointsView(points, offsets)
    _WORKER_STATE["max_k"] = int(max_k)


def _staircases(
    summary: IndexSnapshot,
    view: BlockPointsView,
    anchors: np.ndarray,
    max_k: int,
) -> Staircases:
    """Procedure 1 for every anchor, as fixed-shape rounds over candidate sets.

    Anchors go in spatial groups (:func:`_groups`), each with a candidate
    set ``S`` of blocks and a radius ``rho``: every block outside ``S``
    lies beyond ``rho`` from each of its anchors.  A slab of a group's
    anchors ranks ``S`` once (:func:`_ranked`).  Each round takes every
    pending row's ``c`` nearest candidates (:func:`_nearest`), gathers
    their points and counts those below each threshold, the next
    block's MINDIST (:func:`count_below`): the ``(rows, c)`` matrix
    ``R`` a staircase reads.  Rows still short of ``max_k`` go round
    again at ``2c``; the last round holds all of ``S``.

    ``R`` depends only on the sorted MINDIST values, never on the order
    of tied blocks.  An anchor whose coverage radius (its threshold at
    the first ``R >= max_k``) is below ``rho`` is final by the proof of
    the scalar per-anchor scan in ``tests/reference_builds.py``, whose
    staircase it then equals byte for byte; the others run again over
    every block with ``rho = inf``.
    """
    m = anchors.shape[0]
    n = summary.n_blocks
    if m == 0 or summary.total_count == 0:
        empty = np.empty(0, dtype=np.int64)
        return Staircases(np.zeros(m + 1, dtype=np.int64), empty, empty, np.full(m, np.inf))
    # Same first guess as the per-anchor scan; any guess gives the same result.
    avg_count = max(1.0, summary.total_count / n)
    first_c = int(max_k / avg_count) + 8
    starts = view.offsets[summary.block_ids]
    lengths = view.offsets[summary.block_ids + 1] - starts
    cost_dtype = np.min_scalar_type(n)
    radii = np.full(m, np.nan)  # NaN until an anchor's staircase is final
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def rounds(group: np.ndarray, blocks: np.ndarray, rho: float) -> None:
        """Profile ``group`` over the candidate rows ``blocks``; keep what ``rho`` certifies."""
        width = blocks.shape[0]
        if width == 0 or group.shape[0] == 0:
            return
        cols = summary.rects[blocks].T
        starts_in, lengths_in = starts[blocks], lengths[blocks]
        slab = max(1, _TABLEAU_CELLS // width)
        for lo in range(0, group.shape[0], slab):
            xy = anchors[group[lo : lo + slab]]
            ranked = _ranked(xy, cols)
            pending = np.arange(xy.shape[0])
            c = min(width, first_c)
            while pending.shape[0]:
                order, thresholds = _nearest(xy[pending], cols, ranked[pending], c)
                R = _retrievable(view, xy[pending], starts_in[order], lengths_in[order], thresholds)
                done = R[:, -1] >= max_k if c < width else np.ones(pending.shape[0], dtype=bool)
                R, thresholds, ids = R[done], thresholds[done], group[lo + pending[done]]
                reached = R >= max_k
                first = reached.argmax(axis=1)
                radius = np.where(
                    reached[:, -1], thresholds[np.arange(R.shape[0]), first], np.inf
                )
                if rho < np.inf:
                    certified = radius < rho
                    R, radius, ids = R[certified], radius[certified], ids[certified]
                # A step wherever R rises, up to the first R >= max_k.
                before = np.zeros_like(R)
                before[:, 1:] = R[:, :-1]
                rows, at = np.nonzero((R > before) & (before < max_k))
                found.append((ids[rows], R[rows, at], (at + 1).astype(cost_dtype)))
                radii[ids] = radius
                pending = pending[~done]
                c = min(width, 2 * c)

    for group, blocks, rho in _groups(summary, anchors, max_k, first_c):
        rounds(group, blocks, rho)
    rounds(np.flatnonzero(np.isnan(radii)), np.arange(n), np.inf)
    anchor_of, k_ends, costs = (np.concatenate(column) for column in zip(*found))
    by_anchor = np.argsort(anchor_of, kind="stable")
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(anchor_of, minlength=m), out=offsets[1:])
    return Staircases(offsets, k_ends[by_anchor], costs[by_anchor], radii)


def _groups(summary: IndexSnapshot, anchors: np.ndarray, max_k: int, first_c: int):
    """Yield ``(anchor rows, candidate block rows, rho)`` spatial groups.

    Anchors that fit one tableau against every block, or an index too
    small for grouping to pay (``_GROUPED_BLOCKS_PER_C``), make one group
    over every block.  Otherwise the anchors are sorted along a Z-order
    curve and a run is cut in two at its widest Z-cell boundary until it
    is one anchor or its size times its candidate count fits
    ``_TABLEAU_CELLS``.  A run gets candidates (:func:`_candidates`) once
    its size times the first round's ``c`` fits the budget, and the
    halves of a run that is cut again look only among its candidates.
    """
    m, n = anchors.shape[0], summary.n_blocks
    if m * n <= _TABLEAU_CELLS or n < _GROUPED_BLOCKS_PER_C * first_c:
        yield np.arange(m), np.arange(n), np.inf
        return
    keys = _z_keys(anchors)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    stack = [(0, m, np.arange(n), np.inf)]
    while stack:
        lo, hi, blocks, rho = stack.pop()
        if hi - lo == 1 or (hi - lo) * first_c <= _TABLEAU_CELLS:
            xy = anchors[order[lo:hi]]
            blocks, rho = _candidates(summary, xy, blocks, rho, max_k)
            if hi - lo == 1 or (hi - lo) * blocks.shape[0] <= _TABLEAU_CELLS:
                yield order[lo:hi], blocks, rho
                continue
        first, last = int(keys[lo]), int(keys[hi - 1])
        if first == last:
            cut = (lo + hi) // 2
        else:
            # The first key that has the run's highest differing bit set.
            bit = (first ^ last).bit_length() - 1
            cut = lo + int(np.searchsorted(keys[lo:hi], (last >> bit) << bit))
        stack += [(cut, hi, blocks, rho), (lo, cut, blocks, rho)]


def _candidates(
    summary: IndexSnapshot, xy: np.ndarray, blocks: np.ndarray, rho: float, max_k: int
) -> tuple[np.ndarray, float]:
    """Anchors ``xy``'s candidate rows among ``blocks`` and their radius.

    The new radius is ``_SLACK`` times the smallest MAXDIST from the
    anchors' bounding box at which the nearest blocks hold ``max_k``
    points — every anchor in the box has ``max_k`` points that near —
    capped at ``rho``, and the candidates are the ``blocks`` whose box
    MINDIST is at most the new radius.  ``blocks`` must hold every
    block whose MINDIST from the box is at most ``rho``: a block left
    out then lies beyond ``rho`` from a larger box, so beyond the new
    radius from this one.  ``blocks`` and ``rho`` come back unchanged
    when ``blocks`` holds fewer than ``max_k`` points, and the radius is
    ``inf`` when every block is a candidate.
    """
    box = np.concatenate([xy.min(axis=0), xy.max(axis=0)])[None, :]
    rects = summary.rects[blocks]
    far = maxdist_rects_batch(box, rects)[0]
    by_far = np.argsort(far)
    reach = int(np.searchsorted(np.cumsum(summary.counts[blocks[by_far]]), max_k))
    if reach == blocks.shape[0]:
        return blocks, rho
    rho = min(rho, _SLACK * float(far[by_far[reach]]))
    blocks = blocks[mindist_rects_batch(box, rects)[0] <= rho]
    return blocks, (np.inf if blocks.shape[0] == summary.n_blocks else rho)


def _z_keys(xy: np.ndarray) -> np.ndarray:
    """Each point's position along a Z-order (Morton) curve.

    Coordinates are quantized to 16 bits over the points' own bounding
    box and their bits interleaved, x in the even bits.
    """
    lo = xy.min(axis=0)
    span = xy.max(axis=0) - lo
    cells = ((xy - lo) * (65535.0 / np.where(span > 0, span, 1.0))).astype(np.int64)
    keys = np.zeros(xy.shape[0], dtype=np.int64)
    for bit in range(16):
        keys |= ((cells[:, 0] >> bit) & 1) << (2 * bit)
        keys |= ((cells[:, 1] >> bit) & 1) << (2 * bit + 1)
    return keys


def _ranked(xy: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Each row's blocks ranked by MINDIST key (``cols`` are their four
    bound columns) as sorted int64: a non-negative float's bits order
    like the float, so with its low bits replaced by the block's column
    each entry is the key rounded down and the column it names.  One sort
    serves every round of a slab, where a row-wise ``argpartition`` per
    round cost 2.5 times one sort at a refresh's 42 x 164 keys."""
    n = cols.shape[1]
    low = (1 << max(1, (n - 1).bit_length())) - 1
    ranked = mindist_gaps(*cols, xy[:, :1], xy[:, 1:])[2].view(np.int64)
    ranked &= ~low
    ranked |= np.arange(n)
    ranked.sort(axis=1)
    return ranked


def _nearest(
    xy: np.ndarray, cols: np.ndarray, ranked: np.ndarray, c: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``c`` nearest blocks in MINDIST order, and their thresholds.

    The threshold after block ``i`` is the MINDIST of block ``i + 1`` —
    of the nearest block outside the candidates for the last one, or
    ``inf`` when the candidates are every block.  Only the first ``w =
    c + 1 + WINDOW_SLACK`` blocks of ``ranked`` (:func:`_ranked`) get the
    exact ``np.hypot`` MINDIST; the others key at least the rounded-down
    key at rank ``w``, so a row whose ``c + 1``-th MINDIST is below the
    browse's :func:`~repro.knn.browse.certified_bound` on that key has
    its order, and the rare other row is ordered over every block.
    """
    p, n = ranked.shape
    w = min(n, c + 1 + WINDOW_SLACK)
    low = (1 << max(1, (n - 1).bit_length())) - 1
    order, mindists = _by_mindist(xy, cols, ranked[:, :w] & low)
    if c == n:  # every block: nothing lies past the last one
        return order, np.concatenate([mindists[:, 1:], np.full((p, 1), np.inf)], axis=1)
    order, thresholds = order[:, :c], mindists[:, 1 : c + 1]
    if w < n:
        bound = certified_bound((ranked[:, w] & ~low).view(float))
        unsure = np.flatnonzero(mindists[:, c] >= bound)
        if unsure.shape[0]:
            every = np.broadcast_to(np.arange(n), (unsure.shape[0], n))
            full_order, full = _by_mindist(xy[unsure], cols, every)
            order[unsure], thresholds[unsure] = full_order[:, :c], full[:, 1 : c + 1]
    return order, thresholds


def _by_mindist(xy: np.ndarray, cols: np.ndarray, pick: np.ndarray):
    """Each row's ``pick`` blocks in (stable) MINDIST order, and those MINDISTs."""
    dx, dy, __ = mindist_gaps(*cols[:, pick], xy[:, :1], xy[:, 1:])
    mindists = np.hypot(dx, dy)
    by = np.argsort(mindists, axis=1, kind="stable")
    each = np.arange(pick.shape[0])[:, None]
    return pick[each, by], mindists[each, by]


def count_below(dists: np.ndarray, lengths: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    """``R[r, i]`` = values of row ``r`` strictly below ``thresholds[r, i]``,
    where row ``r`` owns the next ``lengths[r]`` values of ``dists`` after
    rows ``0..r-1``: one in-place sort per row and a ``side="left"``
    search of its thresholds into it, as array methods (the function
    forms cost a wrapper call each, which short rows notice).
    """
    R = np.empty(thresholds.shape, dtype=np.int64)
    lo = 0
    for r, (hi, row_thresholds) in enumerate(zip(np.cumsum(lengths).tolist(), thresholds)):
        row = dists[lo:hi].copy()
        row.sort()
        R[r] = row.searchsorted(row_thresholds)
        lo = hi
    return R


def _retrievable(
    view: BlockPointsView,
    xy: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    thresholds: np.ndarray,
) -> np.ndarray:
    """``R[r, i]`` = points of row ``r``'s candidates nearer than ``thresholds[r, i]``.

    ``starts`` / ``lengths`` locate each candidate block's points in
    ``view``.  Rows are gathered a few at a time so that no pass holds
    more than about ``_GATHER_POINTS`` distances.
    """
    q, c = thresholds.shape
    R = np.empty((q, c), dtype=np.int64)
    totals = lengths.sum(axis=1)
    ends = np.cumsum(totals)
    lo = 0
    while lo < q:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _GATHER_POINTS, side="right")))
        dists, __ = view.gather(xy[lo:hi], starts[lo:hi], lengths[lo:hi])
        R[lo:hi] = count_below(dists, totals[lo:hi], thresholds[lo:hi])
        lo = hi
    return R


def _select_chunk(anchor_coords: np.ndarray) -> Staircases:
    return _staircases(
        _WORKER_STATE["summary"],
        _WORKER_STATE["view"],
        anchor_coords,
        _WORKER_STATE["max_k"],
    )


def _init_locality_worker(snapshot: IndexSnapshot, max_k: int) -> None:
    _WORKER_STATE["inner"] = snapshot
    _WORKER_STATE["max_k"] = int(max_k)


def _locality_chunk(rows: np.ndarray) -> list[Profile]:
    inner = _WORKER_STATE["inner"]
    max_k = _WORKER_STATE["max_k"]
    return [locality_size_profile(inner, row, max_k) for row in rows]


def profile_staircases(
    snapshot,
    view: BlockPointsView,
    anchors,
    max_k: int,
    workers: int | None = None,
) -> Staircases:
    """Procedure 1 staircases (with coverage radii) for many anchors.

    Args:
        snapshot: Block summary of the data blocks (an
            :class:`~repro.index.snapshot.IndexSnapshot`, or a raw
            index to gather one from).
        view: Columnar points view of the same blocks (same order).
        anchors: ``(m, 2)`` anchor coordinates.
        max_k: Largest k each staircase must cover.
        workers: ``0``/``1``/``None`` for the serial in-process path,
            ``N > 1`` for a process pool of N workers — unless the
            anchors-by-blocks tableau fits ``N`` of the in-process
            budgets, when the pass stays in-process.

    Returns:
        The anchors' :class:`Staircases`, identical whatever ``workers``
        is.

    Raises:
        ValueError: If ``max_k < 1``.
    """
    if max_k < 1:
        raise ValueError(f"max_k must be >= 1, got {max_k}")
    workers = resolve_workers(workers)
    summary = as_snapshot(snapshot)
    anchors = np.asarray(anchors, dtype=float).reshape(-1, 2)
    # A pass whose whole tableau fits one budget per worker is over
    # before a pool could start.
    m = anchors.shape[0]
    if workers <= 1 or m <= 1 or m * summary.n_blocks <= workers * _TABLEAU_CELLS:
        return _staircases(summary, view, anchors, max_k)
    # Contiguous, balanced runs of anchors.
    chunks = np.array_split(anchors, min(m, workers * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_select_worker,
        initargs=(summary, view.points, view.offsets, max_k),
    ) as pool:
        parts = list(pool.map(_select_chunk, chunks))
    staircases = parts[0]
    for part in parts[1:]:  # every chunk holds an anchor
        staircases.put(staircases.radii.shape[0] + np.arange(part.radii.shape[0]), part)
    return staircases


def select_cost_profiles(
    snapshot,
    view: BlockPointsView,
    anchors: Sequence[Point],
    max_k: int,
    workers: int | None = None,
) -> list[CoveredProfile]:
    """:func:`profile_staircases` as ``(profile, coverage_radius)`` tuples.

    Returns:
        One pair per anchor, in anchor order: its ``(k_start, k_end,
        cost)`` steps (see
        :func:`~repro.knn.distance_browsing.select_cost_profile`) and the
        MINDIST of its first unscanned block (``inf`` when the profile
        never reaches ``max_k`` or scanned every block).
    """
    if len(anchors) == 0:
        return []
    staircases = profile_staircases(
        snapshot, view, [(a.x, a.y) for a in anchors], max_k, workers
    )
    k_ends, costs = staircases.k_ends.tolist(), staircases.costs.tolist()
    slots = zip(staircases.starts.tolist(), staircases.ends.tolist(), staircases.radii.tolist())
    return [
        (list(zip([1] + [k + 1 for k in k_ends[lo : hi - 1]], k_ends[lo:hi], costs[lo:hi])), radius)
        for lo, hi, radius in slots
    ]


def locality_size_profiles(
    inner,
    rects,
    max_k: int,
    workers: int | None = None,
) -> list[Profile]:
    """Locality-size profiles for many outer rectangles, in order.

    The join-estimator counterpart of :func:`select_cost_profiles`:
    fans :func:`~repro.knn.locality.locality_size_profile` out over the
    sampled outer blocks (Catalog-Merge) or grid cells (Virtual-Grid).

    Args:
        inner: Block summary of the inner relation (snapshot or raw
            index).
        rects: Outer rectangles — a sequence of
            :class:`~repro.geometry.rect.Rect`/bounds tuples or an
            ``(m, 4)`` bounds array.
        max_k: Largest k each profile must cover.
        workers: ``0``/``1``/``None`` for serial, ``N > 1`` for a pool.
    """
    workers = resolve_workers(workers)
    summary = as_snapshot(inner)
    rows = _rect_rows(rects)
    if workers <= 1 or rows.shape[0] <= 1:
        return [locality_size_profile(summary, row, max_k) for row in rows]
    chunks = np.array_split(rows, min(rows.shape[0], workers * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_locality_worker,
        initargs=(summary, max_k),
    ) as pool:
        chunk_results = list(pool.map(_locality_chunk, chunks))
    return [profile for chunk in chunk_results for profile in chunk]
