"""The columnar IndexSnapshot: one block-summary contract for all layers.

Every estimator in the paper works off per-block summaries — bounds,
counts, centers — never the index structure itself.  ``IndexSnapshot``
is that summary as a frozen structure of dense arrays, built **once**
from any :class:`~repro.index.base.SpatialIndex` (quadtree, mutable
quadtree, grid, R-tree) and consumed by every layer above:

* the estimators (:mod:`repro.estimators`) rank and accumulate over
  ``rects``/``counts`` via the :mod:`repro.geometry.kernels`;
* the k-NN locality machinery (:mod:`repro.knn.locality`) computes
  MINDIST/MAXDIST prefixes over the same arrays;
* the preprocessing fan-out (:mod:`repro.perf.parallel`) ships one
  snapshot to every worker process instead of re-gathering per worker;
* the engine's :class:`~repro.engine.stats.StatisticsManager` caches
  one snapshot per table, invalidated by ``data_generation``.

The snapshot is deliberately *summary-only*: it never holds the data
points (catalog construction, the one offline step that reads points,
pairs a snapshot with a :class:`~repro.perf.BlockPointsView`).  It is
therefore pickle-cheap — a handful of ndarrays plus scalars — and
immutable: all arrays are marked read-only so no consumer can corrupt
the shared copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.geometry.kernels import (
    as_anchor,
    maxdist_rects,
    mindist_argsort,
    mindist_rects,
    rect_overlap_mask,
)
from repro.index.locator import BlockLocator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.index.base import SpatialIndex


def _readonly(arr: np.ndarray) -> np.ndarray:
    """Return a C-contiguous, write-protected copy-if-needed of ``arr``."""
    out = np.ascontiguousarray(arr)
    if out is arr and arr.flags.writeable:
        out = arr.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IndexSnapshot:
    """Frozen columnar summary of an index's non-empty leaf blocks.

    Attributes:
        rects: ``(n, 4)`` block bounds ``(x_min, y_min, x_max, y_max)``,
            ordered by ``block_ids`` in the canonical layout.
        counts: ``(n,)`` per-block point counts (non-negative int64).
        centers: ``(n, 2)`` block center coordinates.
        block_ids: ``(n,)`` dense block identifiers (the source index's
            ``Block.block_id`` values; ``arange(n)`` for array-built
            snapshots).  Whatever the physical ``layout``, row ``i``
            always summarizes block ``block_ids[i]`` — consumers that
            pair snapshot rows with index structures must map through
            this column, never assume row position == block id.
        data_generation: The source index's mutation counter at gather
            time (0 for immutable indexes) — the cache-invalidation key.
        source: Class name of the source index (``"arrays"`` when built
            directly from arrays).
        bounds: The source index's universe as a 4-tuple, or ``None``.
        capacity: The source index's leaf capacity, or ``None``.
        layout: Physical row-order tag: ``"canonical"`` (ascending
            ``block_ids``, the gather order) or the name of a
            cache-aware permutation applied by :meth:`with_layout`
            (e.g. ``"hilbert"``).  A non-canonical layout changes
            *memory order only*: every consumer recovers the canonical
            tie-break sequence through :attr:`tie_order`, so results
            are bit-identical whatever the layout.

    All arrays are read-only; derived per-block ``areas`` and
    ``diagonals`` are computed once at construction.
    """

    rects: np.ndarray
    counts: np.ndarray
    centers: np.ndarray
    block_ids: np.ndarray
    data_generation: int = 0
    source: str = "arrays"
    bounds: tuple[float, float, float, float] | None = None
    capacity: int | None = None
    layout: str = "canonical"
    areas: np.ndarray = field(init=False, repr=False)
    diagonals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rects = np.asarray(self.rects, dtype=float).reshape(-1, 4)
        counts = np.asarray(self.counts, dtype=np.int64).reshape(-1)
        centers = np.asarray(self.centers, dtype=float).reshape(-1, 2)
        block_ids = np.asarray(self.block_ids, dtype=np.int64).reshape(-1)
        n = rects.shape[0]
        if counts.shape[0] != n or centers.shape[0] != n or block_ids.shape[0] != n:
            raise ValueError(
                "snapshot column length mismatch: "
                f"rects={n}, counts={counts.shape[0]}, "
                f"centers={centers.shape[0]}, block_ids={block_ids.shape[0]}"
            )
        if not np.all(np.isfinite(rects)):
            raise ValueError("snapshot rects must be finite")
        if np.any(rects[:, 0] > rects[:, 2]) or np.any(rects[:, 1] > rects[:, 3]):
            raise ValueError("inverted block bounds in snapshot")
        if np.any(counts < 0):
            raise ValueError("snapshot counts must be non-negative")
        widths = rects[:, 2] - rects[:, 0]
        heights = rects[:, 3] - rects[:, 1]
        # Bypass the frozen-dataclass guard for canonicalized columns.
        object.__setattr__(self, "rects", _readonly(rects))
        object.__setattr__(self, "counts", _readonly(counts))
        object.__setattr__(self, "centers", _readonly(centers))
        object.__setattr__(self, "block_ids", _readonly(block_ids))
        object.__setattr__(self, "areas", _readonly(widths * heights))
        object.__setattr__(self, "diagonals", _readonly(np.hypot(widths, heights)))

    def __getstate__(self) -> dict:
        # The block locator and runs are derived (rebuilt on first use in
        # ~1 ms): a snapshot shipped to a worker does not carry them.
        state = dict(self.__dict__)
        state.pop("_locator_cache", None)
        state.pop("_runs_cache", None)
        return state

    def __setstate__(self, state: dict) -> None:
        # ndarray pickling drops the writeable=False flag; restore the
        # immutability contract on the unpickled copy (worker processes
        # share snapshots by value, never by reference).
        self.__dict__.update(state)
        for value in self.__dict__.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_index(cls, index: "SpatialIndex") -> "IndexSnapshot":
        """Gather the snapshot of a spatial index's non-empty blocks.

        This is the *one* per-leaf walk in the system; everything
        downstream computes against the arrays it produces.
        """
        blocks = index.blocks
        rects = index.block_bounds_array()
        counts = index.block_counts_array()
        centers = (rects[:, 0:2] + rects[:, 2:4]) / 2.0
        block_ids = np.array([b.block_id for b in blocks], dtype=np.int64)
        bounds = index.bounds
        return cls(
            rects=rects,
            counts=counts,
            centers=centers,
            block_ids=block_ids,
            data_generation=int(getattr(index, "data_generation", 0)),
            source=type(index).__name__,
            bounds=(bounds.x_min, bounds.y_min, bounds.x_max, bounds.y_max),
            capacity=int(index.capacity),
        )

    @classmethod
    def from_arrays(
        cls, rects: np.ndarray, counts: np.ndarray, **metadata
    ) -> "IndexSnapshot":
        """Build a snapshot from bare bounds/counts arrays.

        Centers and block ids are derived; metadata kwargs
        (``data_generation``, ``source``, ``bounds``, ``capacity``)
        pass through.
        """
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        counts = np.asarray(counts, dtype=np.int64).reshape(-1)
        centers = (rects[:, 0:2] + rects[:, 2:4]) / 2.0
        block_ids = np.arange(rects.shape[0], dtype=np.int64)
        return cls(rects=rects, counts=counts, centers=centers, block_ids=block_ids, **metadata)

    # ------------------------------------------------------------------
    # Physical layout
    # ------------------------------------------------------------------
    def with_layout(self, order: np.ndarray, name: str = "hilbert") -> "IndexSnapshot":
        """Physically reorder the snapshot's rows by a permutation.

        Applies ``order`` to every per-block column (rects, counts,
        centers, block_ids — areas/diagonals are re-derived, which is
        elementwise and therefore bit-identical to permuting them).
        The ``block_ids`` contract is preserved: row ``i`` of the
        result summarizes block ``order[i]``'s summary, carrying its
        id.  Consumers recover canonical tie-break/first-hit semantics
        through :attr:`tie_order`, so a relayouted snapshot answers
        every query bit-identically — only the memory-access pattern
        changes (the point: cache-aware layouts like
        :func:`~repro.geometry.hilbert.hilbert_order` make
        MINDIST-ordered walks touch near-contiguous rows).

        Args:
            order: ``(n_blocks,)`` permutation of row indices.
            name: Layout tag recorded on the result.

        Raises:
            ValueError: If ``order`` is not a permutation of the rows,
                or the snapshot is already non-canonical (re-layouting
                a layout would corrupt :meth:`canonical`'s inverse).
        """
        if self.layout != "canonical":
            raise ValueError(
                f"cannot re-layout a {self.layout!r}-layout snapshot; "
                "call .canonical() first"
            )
        order = np.asarray(order, dtype=np.int64).reshape(-1)
        n = self.n_blocks
        if order.shape[0] != n or not np.array_equal(
            np.sort(order), np.arange(n, dtype=np.int64)
        ):
            raise ValueError(
                f"layout order must be a permutation of {n} rows, "
                f"got shape {order.shape}"
            )
        return IndexSnapshot(
            rects=self.rects[order],
            counts=self.counts[order],
            centers=self.centers[order],
            block_ids=self.block_ids[order],
            data_generation=self.data_generation,
            source=self.source,
            bounds=self.bounds,
            capacity=self.capacity,
            layout=str(name),
        )

    def canonical(self) -> "IndexSnapshot":
        """The snapshot in canonical (ascending ``block_ids``) order.

        Returns ``self`` when already canonical.  Build-time consumers
        whose outputs depend on row *position* — catalog construction,
        order-sensitive float reductions — canonicalize at their
        boundary so byte-identical artifacts come out whatever layout
        the serving tier runs.
        """
        if self.layout == "canonical":
            return self
        order = self.tie_order
        return IndexSnapshot(
            rects=self.rects[order],
            counts=self.counts[order],
            centers=self.centers[order],
            block_ids=self.block_ids[order],
            data_generation=self.data_generation,
            source=self.source,
            bounds=self.bounds,
            capacity=self.capacity,
            layout="canonical",
        )

    def extract(self, rows: np.ndarray) -> "IndexSnapshot":
        """A sub-snapshot of selected canonical rows.

        Each row keeps its **global** ``block_ids`` entry (the
        region-pruned operator browses the blocks a region overlaps this
        way, and a shard's slice is one).  Because the rows are taken in
        ascending canonical order, the result is itself ``"canonical"``
        (``tie_order is None``), so position tie-breaks inside the
        sub-snapshot resolve by ascending *global* block id — exactly
        the slice of the parent's tie-break sequence it holds.  A merge
        keyed on ``(MINDIST, global block id)`` therefore reproduces the
        parent's scan order bit-for-bit.

        Args:
            rows: Strictly ascending canonical row indices to keep.

        Raises:
            ValueError: If the snapshot is not canonical or ``rows`` is
                not strictly ascending and in range.
        """
        if self.layout != "canonical":
            raise ValueError(
                f"extract needs a canonical snapshot, got layout {self.layout!r}; "
                "call .canonical() first"
            )
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size:
            if rows[0] < 0 or rows[-1] >= self.n_blocks:
                raise ValueError(
                    f"extract rows out of range [0, {self.n_blocks})"
                )
            if np.any(np.diff(rows) <= 0):
                raise ValueError("extract rows must be strictly ascending")
        return IndexSnapshot(
            rects=self.rects[rows],
            counts=self.counts[rows],
            centers=self.centers[rows],
            block_ids=self.block_ids[rows],
            data_generation=self.data_generation,
            source=self.source,
            bounds=self.bounds,
            capacity=self.capacity,
            layout="canonical",
        )

    @property
    def tie_order(self) -> np.ndarray | None:
        """Permutation restoring canonical order, or ``None`` if canonical.

        ``rects[tie_order]`` is ascending-``block_ids`` order — exactly
        the canonical gather order, since canonical snapshots carry
        ``block_ids == arange(n)``.  Sorting kernels take this to
        reproduce canonical tie-breaks on any physical layout (see the
        *tie-break contract* in :mod:`repro.geometry.kernels`).
        Computed once and cached.
        """
        if self.layout == "canonical":
            return None
        cached = self.__dict__.get("_tie_order_cache")
        if cached is None:
            cached = _readonly(np.argsort(self.block_ids, kind="stable"))
            object.__setattr__(self, "_tie_order_cache", cached)
        return cached

    @property
    def block_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows in ``G`` runs of ``g = isqrt(n)``, as rect columns: each
        run's bounding rect ``(4, G)`` and its block rects ``(4, G, g)``,
        NaN past the last row.  Cached on first use; not pickled."""
        cached = self.__dict__.get("_runs_cache")
        if cached is None:
            n, g = self.n_blocks, math.isqrt(self.n_blocks)
            starts = np.arange(0, n, g)
            lo = np.minimum.reduceat(self.rects[:, :2], starts)
            hi = np.maximum.reduceat(self.rects[:, 2:], starts)
            cols = np.vstack((self.rects, np.full((starts.shape[0] * g - n, 4), np.nan)))
            cached = (_readonly(np.hstack((lo, hi)).T), _readonly(cols.T.reshape(4, -1, g)))
            object.__setattr__(self, "_runs_cache", cached)
        return cached

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_blocks(self) -> int:
        """Number of summarized blocks."""
        return int(self.counts.shape[0])

    @property
    def total_count(self) -> int:
        """Total number of points across all blocks."""
        return int(self.counts.sum())

    def __len__(self) -> int:
        return self.n_blocks

    # ------------------------------------------------------------------
    # Kernel-backed scans (thin delegations so consumers holding only a
    # snapshot never need to import the kernels module themselves)
    # ------------------------------------------------------------------
    def mindist_from(self, anchor) -> np.ndarray:
        """``(n,)`` MINDIST from a point or rect anchor to every block."""
        return mindist_rects(anchor, self.rects)

    def maxdist_from(self, anchor) -> np.ndarray:
        """``(n,)`` MAXDIST from a point or rect anchor to every block."""
        return maxdist_rects(anchor, self.rects)

    def mindist_order(self, anchor) -> tuple[np.ndarray, np.ndarray]:
        """Stable MINDIST ordering ``(order, sorted mindists)``.

        Ties resolve in block-id order on every layout: a reordered
        snapshot passes its :attr:`tie_order` so the visiting sequence
        (as block ids) is identical to the canonical layout's.
        """
        return mindist_argsort(anchor, self.rects, tie_order=self.tie_order)

    def overlapping(self, region) -> np.ndarray:
        """Indices of blocks whose extent intersects ``region``."""
        return np.flatnonzero(rect_overlap_mask(region, self.rects))

    def leaf_ids_for_points(self, points: np.ndarray) -> np.ndarray:
        """Vectorized block binning: the containing block row per point.

        Answers through one :class:`~repro.index.locator.BlockLocator`
        over the snapshot's own block rects (built on first use), under
        the recorded universe (or the rects' hull when the snapshot was
        built from bare arrays).  Points outside the universe, or
        inside it but covered by no block, map to ``-1`` rather than
        raising — batch callers partition misses to a fallback path
        instead of failing the whole batch.

        First-hit semantics are layout-independent: when several block
        rects contain a point (possible on overlapping substrates like
        the R-tree), the winner is the one the *canonical* row order
        would pick, whatever the physical layout — the returned value
        is that block's physical row index.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        if self.n_blocks == 0:
            return np.full(pts.shape[0], -1, dtype=np.int64)
        p = self.tie_order
        locator = self.__dict__.get("_locator_cache")
        if locator is None:
            rects = self.rects if p is None else self.rects[p]
            bounds = self.bounds or (
                float(rects[:, 0].min()),
                float(rects[:, 1].min()),
                float(rects[:, 2].max()),
                float(rects[:, 3].max()),
            )
            locator = BlockLocator(rects, bounds)
            object.__setattr__(self, "_locator_cache", locator)
        rows = locator.home(pts[:, 0], pts[:, 1])
        if p is not None:
            # The locator resolved first-hit in canonical order; map
            # the winning canonical row back to its physical position.
            hit = rows >= 0
            rows[hit] = p[rows[hit]]
        return rows

    # ------------------------------------------------------------------
    # Densities and range selectivity (the classic estimator of the
    # paper's related work [2, 4]: within-block uniformity => count
    # scales with the overlapped area fraction).  A QEP that mixes a
    # k-NN operator with a spatial range predicate (Section 1's hotel/
    # downtown example) needs both estimates from the same statistics.
    # ------------------------------------------------------------------
    def densities(self) -> np.ndarray:
        """Per-block point densities (count / area).

        Degenerate zero-area blocks (possible with R-tree MBRs of
        collinear points) get an infinite density; the density-based
        estimator treats them via the combined-density path where areas
        are summed first.
        """
        with np.errstate(divide="ignore"):
            return np.where(self.areas > 0, self.counts / self.areas, np.inf)

    def estimate_range_count(self, region) -> float:
        """Estimate how many points fall inside ``region`` (``Rect`` or bounds).

        Each block contributes ``count * area(block ∩ region) / area(block)``
        under the uniformity assumption; degenerate (zero-area) blocks
        contribute their full count when they intersect the region.
        """
        x_min, y_min, x_max, y_max = as_anchor(region)
        bounds = self.rects
        areas = self.areas
        overlap_w = np.minimum(bounds[:, 2], x_max) - np.maximum(bounds[:, 0], x_min)
        overlap_h = np.minimum(bounds[:, 3], y_max) - np.maximum(bounds[:, 1], y_min)
        intersects = (overlap_w >= 0) & (overlap_h >= 0)
        overlap_area = np.clip(overlap_w, 0.0, None) * np.clip(overlap_h, 0.0, None)
        fractions = np.where(
            areas > 0,
            overlap_area / np.where(areas > 0, areas, 1.0),
            intersects.astype(float),
        )
        return float((self.counts * fractions).sum())

    def estimate_range_selectivity(self, region) -> float:
        """Estimated fraction of all points that fall inside ``region``."""
        total = self.total_count
        if total == 0:
            return 0.0
        return self.estimate_range_count(region) / total

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Bytes needed to persist the summary columns."""
        return (
            self.rects.nbytes
            + self.counts.nbytes
            + self.centers.nbytes
            + self.block_ids.nbytes
        )

    def describe(self) -> str:
        """One-line summary for logs and the CLI."""
        return (
            f"{self.n_blocks} blocks / {self.total_count} points "
            f"from {self.source} (generation {self.data_generation})"
        )


def as_snapshot(obj) -> IndexSnapshot:
    """Normalize an index-like argument to an :class:`IndexSnapshot`.

    Accepts an :class:`IndexSnapshot` (returned as-is) or a
    :class:`~repro.index.base.SpatialIndex` (gathered on the spot).
    Estimators use this at their boundaries so callers can hand over
    whichever representation they already have — and so a
    :class:`~repro.engine.stats.StatisticsManager`-cached snapshot is
    reused instead of re-gathered.

    Raises:
        TypeError: For objects carrying no block summaries.
    """
    if isinstance(obj, IndexSnapshot):
        return obj
    if hasattr(obj, "block_bounds_array") and hasattr(obj, "blocks"):
        return IndexSnapshot.from_index(obj)
    raise TypeError(
        f"cannot derive an IndexSnapshot from {type(obj).__name__!r}"
    )


def partition_bounds(aux_index) -> np.ndarray:
    """``(n_leaves, 4)`` bounds of *all* leaves of a space partition.

    Unlike :meth:`IndexSnapshot.from_index` this includes structurally
    empty leaves: Staircase catalogs are anchored at every leaf region
    of the auxiliary index whether or not it holds points.  Row order
    matches ``aux_index.leaves`` (the catalog ``leaf_id`` order).
    """
    leaves = aux_index.leaves
    if not leaves:
        return np.empty((0, 4), dtype=float)
    return np.array([leaf.rect.as_tuple() for leaf in leaves], dtype=float)
