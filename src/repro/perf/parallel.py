"""Batched and multi-process preprocessing fan-out.

Catalog preprocessing is embarrassingly parallel: every anchor's cost
profile (:func:`~repro.knn.distance_browsing.select_cost_profile_covered`) and
every outer block's locality profile
(:func:`~repro.knn.locality.locality_size_profile`) is independent of
the others.  This module provides the batching and fan-out shared by the
Staircase, Catalog-Merge, and Virtual-Grid estimators:

* :func:`profile_staircases` — Procedure 1 for many anchors at once, in
  fixed-shape rounds over slabs of anchors, returned as
  :class:`Staircases`; :func:`select_cost_profiles` is the same pass as
  ``(profile, C)`` tuples.  Both equal the per-anchor scan byte for
  byte.
* :class:`BlockPointsView` — a columnar, picklable stand-in for a block
  list whose points the batch pass gathers with one fancy-index and one
  ``np.hypot`` call.  The values are elementwise identical to the
  per-block ``distances_from`` path.
* :func:`locality_size_profiles` — ordered many-rect fan-out of
  Procedure 2.

Both fan-outs take an optional
:class:`~concurrent.futures.ProcessPoolExecutor` path (``workers=N``);
``workers=0``/``1`` (the default everywhere) keeps the build serial and
in-process — results are identical either way, asserted by the
equivalence suite.

Worker processes receive the :class:`~repro.index.snapshot.IndexSnapshot`
(plus, for select profiles, the columnar points payload) once via the
pool initializer — the snapshot is the pickle-cheap block-summary
contract, so no worker re-materializes per-leaf structures — and each
chunk message then carries only anchor coordinates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import NamedTuple, Sequence

import numpy as np

from repro.geometry import Point
from repro.geometry.backends import active_backend, set_backend
from repro.geometry.kernels import as_anchor, mindist_rects_batch
from repro.index.snapshot import IndexSnapshot, as_snapshot
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


class Staircases(NamedTuple):
    """The Procedure 1 staircases of many anchors, laid end to end.

    Anchor ``i`` owns steps ``offsets[i]:offsets[i + 1]``: after
    ``costs[j]`` blocks, ``k_ends[j]`` points are retrievable — the
    ``(k_end, cost)`` columns of its
    :func:`~repro.knn.distance_browsing.select_cost_profile_covered`
    profile.  ``radii[i]`` is its coverage radius.  ``costs`` uses the
    narrowest unsigned dtype that holds a block count.
    """

    offsets: np.ndarray
    k_ends: np.ndarray
    costs: np.ndarray
    radii: np.ndarray

    def dense(self, anchors: np.ndarray, max_k: int) -> np.ndarray:
        """``(len(anchors), max_k)`` costs at every ``k`` in ``[1, max_k]``.

        Each staircase is closed at ``max_k`` the way Procedure 1 pads
        and truncates a catalog: its last step covers every ``k`` up to
        ``max_k``.  Costs keep their narrow dtype.  The index must hold
        a point (an empty one has no steps).
        """
        lo = self.offsets[anchors]
        lengths = self.offsets[anchors + 1] - lo
        steps = _concat_ranges(lo, lengths)
        k_ends = self.k_ends[steps]
        last = np.cumsum(lengths) - 1
        k_ends[last] = max_k
        runs = np.diff(k_ends, prepend=0)
        runs[last[:-1] + 1] = k_ends[last[:-1] + 1]
        return np.repeat(self.costs[steps], runs).reshape(anchors.shape[0], max_k)


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


class BlockPointsView:
    """Columnar view of a block list's points, for batched gathers.

    Stores every block's points in one ``(total, 2)`` array plus an
    offsets array (block ``b`` owns rows ``offsets[b]:offsets[b + 1]``),
    so the batch pass gathers the points of any blocks for any anchors
    with one fancy index and one ``np.hypot``.  Because ``np.hypot`` is
    elementwise, each distance is bitwise the one
    ``Block.distances_from`` returns.

    The two arrays are plain ndarrays, so the view ships to worker
    processes as an ``initargs`` payload without custom pickling.
    """

    __slots__ = ("points", "offsets", "_xs", "_ys")

    def __init__(self, points: np.ndarray, offsets: np.ndarray) -> None:
        self.points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        # Contiguous per-coordinate copies: two 1-D gathers beat one
        # strided 2-D row gather in the hot loop.
        self._xs = np.ascontiguousarray(self.points[:, 0])
        self._ys = np.ascontiguousarray(self.points[:, 1])

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "BlockPointsView":
        """Flatten a block sequence into the columnar layout."""
        arrays = [np.asarray(b.points, dtype=float).reshape(-1, 2) for b in blocks]
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        if arrays:
            np.cumsum([a.shape[0] for a in arrays], out=offsets[1:])
            points = np.concatenate(arrays)
        else:
            points = np.empty((0, 2), dtype=float)
        return cls(points, offsets)


def _concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges ``[starts[j], starts[j] + lengths[j])``, concatenated.

    Each output slot holds its range's start minus the range's output
    offset, and one global ``arange`` supplies the progression.
    """
    out_offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - out_offsets, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


def _chunked(items: Sequence, n_chunks: int) -> list[Sequence]:
    """Split ``items`` into up to ``n_chunks`` contiguous, balanced runs."""
    n_chunks = max(1, min(n_chunks, len(items)))
    size, extra = divmod(len(items), n_chunks)
    chunks = []
    start = 0
    for i in range(n_chunks):
        end = start + size + (1 if i < extra else 0)
        chunks.append(items[start:end])
        start = end
    return chunks


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
    backend: str = "numpy",
) -> None:
    # Workers follow the parent's kernel backend (spawned interpreters
    # re-run backend selection from scratch; set_backend silently
    # degrades to numpy where the compiled backend is unavailable).
    set_backend(backend)
    _WORKER_STATE["summary"] = snapshot
    _WORKER_STATE["view"] = BlockPointsView(points, offsets)
    _WORKER_STATE["max_k"] = int(max_k)


def _staircases(
    summary: IndexSnapshot,
    view: BlockPointsView,
    anchors: np.ndarray,
    max_k: int,
) -> Staircases:
    """Procedure 1 for every anchor, as fixed-shape rounds over slabs.

    A slab of anchors shares one MINDIST tableau.  Each round takes
    every pending row's ``c + 1`` nearest blocks (one row-wise
    ``argpartition`` and a stable sort), gathers their points in one
    pass and bins each distance against its row's thresholds (each
    next block's MINDIST) with one ``searchsorted`` over complex
    ``row + 1j * threshold`` keys — numpy orders complex numbers by
    real part, then imaginary part, so the binning is exact.  A
    ``bincount`` + ``cumsum`` gives the ``(rows, c)`` matrix ``R`` of
    points retrievable after each block; rows still short of ``max_k``
    go to the next round at ``2c``, the last round being a full sort.
    ``select_cost_profile_covered``'s proof makes any candidate count
    that reaches ``max_k`` (or every block) give the same staircase, so
    the rounds are that function, anchor for anchor, byte for byte.
    """
    m = anchors.shape[0]
    n = summary.n_blocks
    if m == 0 or summary.total_count == 0:
        empty = np.empty(0, dtype=np.int64)
        return Staircases(np.zeros(m + 1, dtype=np.int64), empty, empty, np.full(m, np.inf))
    # Same first guess as the per-anchor scan; any guess gives the same result.
    avg_count = max(1.0, summary.total_count / n)
    first_c = min(n, int(max_k / avg_count) + 8)
    starts = view.offsets[summary.block_ids]
    lengths = view.offsets[summary.block_ids + 1] - starts
    cost_dtype = np.min_scalar_type(n)
    radii = np.empty(m, dtype=float)
    found: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    slab = max(1, _TABLEAU_CELLS // n)
    for lo in range(0, m, slab):
        xy = anchors[lo : lo + slab]
        tableau = mindist_rects_batch(xy, summary.rects)
        pending = np.arange(xy.shape[0])
        c = first_c
        while pending.shape[0]:
            order, thresholds = _nearest(tableau[pending], c)
            R = _retrievable(view, xy[pending], starts[order], lengths[order], thresholds)
            done = R[:, -1] >= max_k if c < n else np.ones(pending.shape[0], dtype=bool)
            R, thresholds = R[done], thresholds[done]
            # A step wherever R rises, up to the first R >= max_k.
            before = np.zeros_like(R)
            before[:, 1:] = R[:, :-1]
            rows, cols = np.nonzero((R > before) & (before < max_k))
            found.append(
                (lo + pending[done][rows], R[rows, cols], (cols + 1).astype(cost_dtype))
            )
            reached = R >= max_k
            first = reached.argmax(axis=1)
            radii[lo + pending[done]] = np.where(
                reached[:, -1], thresholds[np.arange(R.shape[0]), first], np.inf
            )
            pending = pending[~done]
            c = min(n, 2 * c)
    anchor_of, k_ends, costs = (np.concatenate(column) for column in zip(*found))
    by_anchor = np.argsort(anchor_of, kind="stable")
    offsets = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(anchor_of, minlength=m), out=offsets[1:])
    return Staircases(offsets, k_ends[by_anchor], costs[by_anchor], radii)


def _nearest(tableau: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Each row's ``c`` nearest blocks in MINDIST order, and their thresholds.

    The threshold after block ``i`` is the MINDIST of block ``i + 1`` —
    of the nearest block outside the candidates for the last one, or
    ``inf`` when the candidates are every block.
    """
    n = tableau.shape[1]
    if c < n:
        nearest = np.argpartition(tableau, c, axis=1)[:, : c + 1]
        mindists = np.take_along_axis(tableau, nearest, axis=1)
        by = np.argsort(mindists, axis=1, kind="stable")
        order = np.take_along_axis(nearest, by, axis=1)[:, :c]
        return order, np.take_along_axis(mindists, by, axis=1)[:, 1:]
    order = np.argsort(tableau, axis=1, kind="stable")
    thresholds = np.empty(tableau.shape, dtype=float)
    thresholds[:, :-1] = np.take_along_axis(tableau, order[:, 1:], axis=1)
    thresholds[:, -1] = np.inf
    return order, thresholds


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
        rows = np.repeat(np.arange(hi - lo), totals[lo:hi])
        gather = _concat_ranges(starts[lo:hi].ravel(), lengths[lo:hi].ravel())
        x, y = xy[lo:hi, 0][rows], xy[lo:hi, 1][rows]
        dists = np.hypot(view._xs[gather] - x, view._ys[gather] - y)
        keys = np.empty((hi - lo, c), dtype=complex)
        keys.real = np.arange(hi - lo)[:, None]
        keys.imag = thresholds[lo:hi]
        values = np.empty(dists.shape[0], dtype=complex)
        values.real = rows
        values.imag = dists
        # Row r's value lands at r * c + #{thresholds <= dist}; + r skips
        # one overflow bin per row.
        bins = np.searchsorted(keys.ravel(), values, side="right") + rows
        counts = np.bincount(bins, minlength=(hi - lo) * (c + 1)).reshape(hi - lo, c + 1)
        np.cumsum(counts[:, :c], axis=1, out=R[lo:hi])
        lo = hi
    return R


def _concatenated(parts: list[Staircases]) -> Staircases:
    """The staircases of consecutive anchor chunks, as one."""
    shifts = np.cumsum([0] + [p.k_ends.shape[0] for p in parts[:-1]])
    return Staircases(
        np.concatenate([[0]] + [p.offsets[1:] + s for p, s in zip(parts, shifts)]),
        np.concatenate([p.k_ends for p in parts]),
        np.concatenate([p.costs for p in parts]),
        np.concatenate([p.radii for p in parts]),
    )


def _select_chunk(anchor_coords: np.ndarray) -> Staircases:
    return _staircases(
        _WORKER_STATE["summary"],
        _WORKER_STATE["view"],
        anchor_coords,
        _WORKER_STATE["max_k"],
    )


def _init_locality_worker(
    snapshot: IndexSnapshot, max_k: int, backend: str = "numpy"
) -> None:
    set_backend(backend)
    _WORKER_STATE["inner"] = snapshot
    _WORKER_STATE["max_k"] = int(max_k)


def _locality_chunk(
    rect_bounds: list[tuple[float, float, float, float]],
) -> list[Profile]:
    inner = _WORKER_STATE["inner"]
    max_k = _WORKER_STATE["max_k"]
    return [locality_size_profile(inner, bounds, max_k) for bounds in rect_bounds]


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
            ``N > 1`` for a process pool of N workers.

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
    if workers <= 1 or anchors.shape[0] <= 1:
        return _staircases(summary, view, anchors, max_k)
    chunks = _chunked(anchors, workers * _CHUNKS_PER_WORKER)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_select_worker,
        initargs=(summary, view.points, view.offsets, max_k, active_backend()),
    ) as pool:
        return _concatenated(list(pool.map(_select_chunk, chunks)))


def select_cost_profiles(
    snapshot,
    view: BlockPointsView,
    anchors: Sequence[Point],
    max_k: int,
    workers: int | None = None,
) -> list[CoveredProfile]:
    """:func:`profile_staircases` as ``select_cost_profile_covered`` tuples.

    Returns:
        One ``(profile, coverage_radius)`` pair per anchor, in anchor
        order — what ``select_cost_profile_covered`` returns for it.
    """
    if len(anchors) == 0:
        return []
    staircases = profile_staircases(
        snapshot, view, [(a.x, a.y) for a in anchors], max_k, workers
    )
    offsets = staircases.offsets.tolist()
    k_ends = staircases.k_ends.tolist()
    costs = staircases.costs.tolist()
    k_starts = [1] + [k + 1 for k in k_ends[:-1]]
    for lo in offsets[:-1]:
        if lo < len(k_starts):
            k_starts[lo] = 1
    return [
        (list(zip(k_starts[lo:hi], k_ends[lo:hi], costs[lo:hi])), radius)
        for lo, hi, radius in zip(offsets[:-1], offsets[1:], staircases.radii.tolist())
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
    rect_bounds = [tuple(row) for row in rows]
    chunks = _chunked(rect_bounds, workers * _CHUNKS_PER_WORKER)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_locality_worker,
        initargs=(summary, max_k, active_backend()),
    ) as pool:
        chunk_results = list(pool.map(_locality_chunk, chunks))
    return [profile for chunk in chunk_results for profile in chunk]
