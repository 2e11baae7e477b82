"""Batched and multi-process preprocessing fan-out.

Catalog preprocessing is embarrassingly parallel: every anchor's cost
profile (:func:`~repro.knn.distance_browsing.select_cost_profile_covered`) and
every outer block's locality profile
(:func:`~repro.knn.locality.locality_size_profile`) is independent of
the others.  This module provides the fan-out plumbing shared by the
Staircase, Catalog-Merge, and Virtual-Grid estimators:

* :class:`BlockPointsView` — a columnar, picklable stand-in for a block
  list that answers the distance-gather step of
  ``select_cost_profile`` with one fancy-index + one ``np.hypot`` call
  instead of one tiny ``distances_from`` call per block.  The gathered
  values are elementwise identical to the per-block path, so profiles
  (and therefore catalogs) stay bit-for-bit equal to the serial seed
  build.
* :func:`select_cost_profiles` / :func:`locality_size_profiles` —
  ordered many-anchor fan-out with an optional
  :class:`~concurrent.futures.ProcessPoolExecutor` path
  (``workers=N``).  ``workers=0``/``1`` (the default everywhere) keeps
  the build serial and in-process for determinism of *environment* —
  results are identical either way, asserted by the equivalence suite.

Worker processes receive the :class:`~repro.index.snapshot.IndexSnapshot`
(plus, for select profiles, the columnar points payload) once via the
pool initializer — the snapshot is the pickle-cheap block-summary
contract, so no worker re-materializes per-leaf structures — and each
chunk message then carries only anchor coordinates.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

import numpy as np

from repro.geometry import Point
from repro.geometry.backends import active_backend, set_backend
from repro.geometry.kernels import as_anchor, mindist_rects_batch
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.knn.distance_browsing import select_cost_profile_covered
from repro.knn.locality import locality_size_profile

Profile = list[tuple[int, int, int]]
#: A select-cost profile with its coverage radius.
CoveredProfile = tuple[Profile, float]

# Chunks per worker: enough to smooth out uneven anchor costs without
# drowning the pool in message overhead.
_CHUNKS_PER_WORKER = 4

# Anchors per MINDIST batch: bounds the (batch, n_blocks) distance
# matrix to a few MB whatever the dataset scale.
_MINDIST_BATCH = 256


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
    offsets array, so :meth:`gathered_distances` can compute the
    distances of an arbitrary block subsequence with a single
    ``np.hypot`` over the gathered coordinates.  Because ``np.hypot``
    is elementwise, the result is bitwise identical to concatenating
    per-block ``Block.distances_from`` outputs in the same order.

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

    def gathered_distances(self, order: np.ndarray, query: Point) -> np.ndarray:
        """Distances of the points of blocks ``order`` (in that order).

        Equivalent to
        ``np.concatenate([blocks[i].distances_from(query) for i in order])``
        but with one gather and one ``np.hypot`` call.
        """
        order = np.asarray(order, dtype=np.int64)
        if order.shape[0] == 0:
            return np.empty(0, dtype=float)
        starts = self.offsets[order]
        lengths = self.offsets[order + 1] - starts
        total = int(lengths.sum())
        # Vectorized concatenation of ranges [starts[j], starts[j]+lengths[j]):
        # each output slot holds its segment's start minus the segment's
        # output offset, and a global arange supplies the within-segment
        # progression.
        out_offsets = np.zeros(order.shape[0], dtype=np.int64)
        np.cumsum(lengths[:-1], out=out_offsets[1:])
        gather = np.repeat(starts - out_offsets, lengths) + np.arange(
            total, dtype=np.int64
        )
        return np.hypot(self._xs[gather] - query.x, self._ys[gather] - query.y)


def _chunked(items: list, n_chunks: int) -> list[list]:
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


def _profiles_batched(
    summary: IndexSnapshot,
    view: BlockPointsView,
    anchor_coords: Sequence[tuple[float, float]],
    max_k: int,
) -> list[CoveredProfile]:
    """Profile anchors in order, batching the MINDIST computation.

    Anchor-to-block MINDISTs are computed a few hundred anchors at a
    time via :func:`~repro.geometry.kernels.mindist_rects_batch`
    (row-for-row identical to the per-anchor path) and fed to
    ``select_cost_profile_covered``, which otherwise runs unchanged.
    """
    profiles: list[CoveredProfile] = []
    rects = summary.rects
    for start in range(0, len(anchor_coords), _MINDIST_BATCH):
        batch = anchor_coords[start : start + _MINDIST_BATCH]
        mindist_matrix = mindist_rects_batch(np.asarray(batch, dtype=float), rects)
        profiles.extend(
            select_cost_profile_covered(
                summary,
                view,
                Point(x, y),
                max_k,
                mindists_all=mindist_matrix[i],
            )
            for i, (x, y) in enumerate(batch)
        )
    return profiles


def _select_chunk(anchor_coords: list[tuple[float, float]]) -> list[CoveredProfile]:
    return _profiles_batched(
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


def select_cost_profiles(
    snapshot,
    view: BlockPointsView,
    anchors: Sequence[Point],
    max_k: int,
    workers: int | None = None,
) -> list[CoveredProfile]:
    """Cost profiles (with coverage radii) for many anchors, in anchor order.

    Args:
        snapshot: Block summary of the data blocks (an
            :class:`~repro.index.snapshot.IndexSnapshot`, or a raw
            index to gather one from).
        view: Columnar points view of the same blocks (same order).
        anchors: Anchor points to profile.
        max_k: Largest k each profile must cover.
        workers: ``0``/``1``/``None`` for the serial in-process path,
            ``N > 1`` for a process pool of N workers.

    Returns:
        ``select_cost_profile_covered`` output per anchor — a
        ``(profile, coverage_radius)`` pair, identical to calling it
        serially, whatever ``workers`` is.
    """
    workers = resolve_workers(workers)
    if len(anchors) == 0:
        return []
    summary = as_snapshot(snapshot)
    coords = [(a.x, a.y) for a in anchors]
    if workers <= 1 or len(anchors) <= 1:
        return _profiles_batched(summary, view, coords, max_k)
    chunks = _chunked(coords, workers * _CHUNKS_PER_WORKER)
    with ProcessPoolExecutor(
        max_workers=workers,
        initializer=_init_select_worker,
        initargs=(summary, view.points, view.offsets, max_k, active_backend()),
    ) as pool:
        chunk_results = list(pool.map(_select_chunk, chunks))
    return [profile for chunk in chunk_results for profile in chunk]


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
