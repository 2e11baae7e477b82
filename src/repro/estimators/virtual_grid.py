"""The Virtual-Grid k-NN-Join cost estimator (Section 4.3).

Catalog-Merge needs a catalog per ordered relation pair — quadratic in
the schema size.  Virtual-Grid instead attaches *one* set of catalogs to
each relation ``D`` in its role as a join *inner*: a fixed virtual grid
is laid over the whole space ("the bounds of the earth are fixed"), and
for every grid cell a locality catalog is precomputed with respect to
``D``'s blocks.

At estimation time, for each grid cell ``C`` with locality size ``L``
(a catalog lookup at the query's k), the outer relation's blocks
overlapping ``C`` are retrieved by a range query, and each overlapping
block ``O`` contributes ``L * diagonal(O) / diagonal(C)``; the sum over
all cells is the join cost estimate.

The estimation time is ``O(n_o)`` regardless of the grid size because
every outer block is eventually selected by some cell's range query
(Figure 19 shows the flat curve this predicts).

A block overlapping several cells contributes once per cell — that is
the paper's formulation and the default (``assignment="overlap"``).
Two ablation variants trade fidelity to the paper for the removal of
double counting: ``assignment="center"`` assigns each outer block only
to the cell containing its center, and ``assignment="clipped"`` scales
each overlap by the diagonal of the block-cell *intersection* instead
of the whole block.  The ablation benchmark quantifies the difference.

The virtual grid is fixed, so maintenance under inner-relation updates
is per cell: :meth:`VirtualGridEstimator.refresh_incremental` (the
constructor is that call with every cell missing) rebuilds only cells
whose coverage disc met a mutation — see
:mod:`repro.estimators.maintenance`.
"""

from __future__ import annotations

import time
from typing import Literal

import numpy as np

from repro.catalog import CatalogLookupError, IntervalCatalog, catalog_storage_bytes
from repro.catalog.store import CatalogStore
from repro.estimators.base import JoinCostEstimator, validate_k
from repro.estimators.maintenance import MaintenanceReport, stale_entries
from repro.geometry import Rect
from repro.index.grid import GridIndex
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.perf import PreprocessingStats, locality_size_profiles, resolve_workers

DEFAULT_MAX_K = 2_048
DEFAULT_GRID_SIZE = 10

Assignment = Literal["overlap", "center", "clipped"]


class VirtualGridEstimator:
    """Per-inner-relation Virtual-Grid catalogs.

    One instance is associated with a relation in its role as join
    inner; bind an outer relation at query time with :meth:`estimate`
    or :meth:`for_outer`.

    Args:
        inner: Block summary of the inner relation (index or
            snapshot).  Incremental refreshes need its
            generation-keyed update log; over anything else every
            refresh is a full rebuild.
        bounds: The fixed universe over which the virtual grid is laid
            (shared across all relations so the grids align).
        grid_size: Number of cells per axis (``g`` in a ``g x g`` grid).
        max_k: Largest k the per-cell catalogs support.
        workers: Worker processes for the per-cell locality-profile
            fan-out; ``None``/0/1 computes in-process.

    Raises:
        ValueError: On an empty inner relation or invalid parameters.
    """

    def __init__(
        self,
        inner,
        bounds: Rect,
        grid_size: int = DEFAULT_GRID_SIZE,
        max_k: int = DEFAULT_MAX_K,
        *,
        workers: int | None = None,
    ) -> None:
        if grid_size < 1:
            raise ValueError(f"grid_size must be >= 1, got {grid_size}")
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self._workers = resolve_workers(workers)
        self._max_k = max_k
        self._inner = inner
        self._grid = GridIndex.virtual(bounds, grid_size)
        self._cell_rects = np.array(
            [cell.as_tuple() for cell in self._grid.cells], dtype=float
        )
        n_cells = self._cell_rects.shape[0]
        self._cell_catalogs: list[IntervalCatalog | None] = [None] * n_cells
        self._coverage = np.full(n_cells, np.inf, dtype=float)
        self._inner_generation = 0
        self.refresh_incremental(full=True)

    def refresh_incremental(self, *, full: bool = False) -> MaintenanceReport:
        """Rebuild the cell catalogs a mutation may have changed.

        A cell whose coverage disc misses every inner region noted dirty
        since the last refresh keeps its catalog; the padded lookup
        matrices are reassembled whenever any cell was rebuilt.

        Raises:
            ValueError: If the inner relation is currently empty.
        """
        # Canonical row order keeps per-cell profiles and weight
        # accumulation layout-independent (see _cell_weights).
        inner_snap = as_snapshot(self._inner).canonical()
        if inner_snap.n_blocks == 0:
            raise ValueError("cannot estimate joins against an empty inner relation")
        n_cells = self._cell_rects.shape[0]
        stale = stale_entries(
            self._inner,
            self._inner_generation,
            self._cell_rects,
            self._coverage,
            full=full,
        )
        idx = np.flatnonzero(stale)
        rows = self._cell_rects[idx]

        start = time.perf_counter()
        stats = PreprocessingStats(technique="virtual-grid", workers=self._workers)
        with stats.phase("profiles"):
            profiles = locality_size_profiles(
                inner_snap, rows, self._max_k, workers=self._workers
            )
        with stats.phase("assemble"):
            for i, (profile, radius) in zip(idx.tolist(), profiles):
                self._cell_catalogs[i] = IntervalCatalog.from_profile(
                    profile, max_k=self._max_k
                ).truncated(self._max_k)
                self._coverage[i] = radius
            if len(idx):
                self._assemble_matrices()
        self._inner_generation = int(inner_snap.data_generation)
        stats.anchors_total = n_cells
        stats.anchors_unique = n_cells
        stats.profiles_computed = len(idx)
        self.preprocessing_seconds = time.perf_counter() - start
        stats.wall_seconds = self.preprocessing_seconds
        self.preprocessing_stats = stats
        return MaintenanceReport.of_pass(
            full=full, generation=self._inner_generation, total=n_cells, rebuilt=len(idx)
        )

    def _assemble_matrices(self) -> None:
        """(Re)build the padded lookup matrices from the cell catalogs.

        Padded matrices give one-shot vectorized lookup across all cells
        (padding with ``max_k`` keeps searchsorted semantics).  Called
        whenever a refresh replaced some cell catalogs.
        """
        max_entries = max(c.n_entries for c in self._cell_catalogs)
        n_cells = len(self._cell_catalogs)
        self._k_end_matrix = np.full(
            (n_cells, max_entries), self._max_k, dtype=np.int64
        )
        self._cost_matrix = np.zeros((n_cells, max_entries))
        for i, catalog in enumerate(self._cell_catalogs):
            n = catalog.n_entries
            self._k_end_matrix[i, :n] = catalog.k_ends
            self._cost_matrix[i, :n] = catalog.costs
            self._cost_matrix[i, n:] = catalog.costs[-1]

    # ------------------------------------------------------------------
    # Estimation (Section 4.3.2)
    # ------------------------------------------------------------------
    def estimate(
        self,
        outer,
        k: int,
        assignment: Assignment = "overlap",
    ) -> float:
        """Estimate the cost of ``outer ⋉_kNN inner``.

        Args:
            outer: Block summary of the outer relation (index or
                snapshot).
            k: Number of neighbors per outer point.
            assignment: ``"overlap"`` (the paper's rule: every block
                contributes once per overlapping cell), ``"center"``
                (ablation: each block contributes to exactly one cell),
                or ``"clipped"`` (ablation: scale by the diagonal of
                the block-cell intersection).

        Raises:
            CatalogLookupError: If ``k`` exceeds the catalogs' range.
            ValueError: On invalid ``k`` or assignment.
        """
        validate_k(k)
        if assignment not in ("overlap", "center", "clipped"):
            raise ValueError(f"unknown assignment {assignment!r}")
        if k > int(self._k_end_matrix[0, -1]):
            raise CatalogLookupError(
                f"k={k} exceeds the grid catalogs' supported maximum"
            )
        weights = self._cell_weights(as_snapshot(outer).canonical(), assignment)
        # Vectorized per-cell catalog lookup: first entry with k_end >= k.
        entry = np.argmax(self._k_end_matrix >= k, axis=1)
        localities = self._cost_matrix[np.arange(entry.shape[0]), entry]
        cell_diagonal = self._grid.cells[0].diagonal  # uniform grid cells
        return float((localities * weights).sum() / cell_diagonal)

    def _cell_weights(self, outer: IndexSnapshot, assignment: Assignment) -> np.ndarray:
        """Per-cell sums of (scaled) outer-block diagonals.

        The per-cell range queries of Section 4.3.2 are output-sensitive
        in aggregate — every outer block is selected by the cells it
        overlaps, so the total work is O(n_o) regardless of the grid
        resolution (the paper's Figure 19 argument).  This is realized
        by assigning each block directly to its overlapping cell range
        instead of scanning all blocks once per cell.
        """
        bounds = outer.rects
        diagonals = outer.diagonals
        nx, ny = self._grid.shape
        grid_bounds = self._grid.bounds
        cell_w = grid_bounds.width / nx
        cell_h = grid_bounds.height / ny
        weights = np.zeros(nx * ny)

        if assignment == "center":
            centers_x = (bounds[:, 0] + bounds[:, 2]) / 2.0
            centers_y = (bounds[:, 1] + bounds[:, 3]) / 2.0
            ix = np.clip(
                ((centers_x - grid_bounds.x_min) / cell_w).astype(np.int64), 0, nx - 1
            )
            iy = np.clip(
                ((centers_y - grid_bounds.y_min) / cell_h).astype(np.int64), 0, ny - 1
            )
            np.add.at(weights, iy * nx + ix, diagonals)
            return weights

        ix0 = np.clip(
            np.floor((bounds[:, 0] - grid_bounds.x_min) / cell_w).astype(np.int64),
            0,
            nx - 1,
        )
        ix1 = np.clip(
            np.floor((bounds[:, 2] - grid_bounds.x_min) / cell_w).astype(np.int64),
            0,
            nx - 1,
        )
        iy0 = np.clip(
            np.floor((bounds[:, 1] - grid_bounds.y_min) / cell_h).astype(np.int64),
            0,
            ny - 1,
        )
        iy1 = np.clip(
            np.floor((bounds[:, 3] - grid_bounds.y_min) / cell_h).astype(np.int64),
            0,
            ny - 1,
        )
        single = (ix0 == ix1) & (iy0 == iy1)
        # Blocks inside one cell (the vast majority) in one vector op.
        np.add.at(weights, iy0[single] * nx + ix0[single], diagonals[single])
        # Blocks straddling cells contribute once per overlapped cell
        # ("overlap", the paper's rule) or by the diagonal of the
        # block-cell intersection ("clipped" ablation).
        for idx in np.flatnonzero(~single):
            x_min, y_min, x_max, y_max = bounds[idx]
            for iy in range(iy0[idx], iy1[idx] + 1):
                for ix in range(ix0[idx], ix1[idx] + 1):
                    if assignment == "overlap":
                        weights[iy * nx + ix] += diagonals[idx]
                    else:  # clipped
                        cx0 = grid_bounds.x_min + ix * cell_w
                        cy0 = grid_bounds.y_min + iy * cell_h
                        w = min(x_max, cx0 + cell_w) - max(x_min, cx0)
                        h = min(y_max, cy0 + cell_h) - max(y_min, cy0)
                        weights[iy * nx + ix] += float(np.hypot(max(w, 0.0), max(h, 0.0)))
        return weights

    def for_outer(
        self, outer, assignment: Assignment = "overlap"
    ) -> "BoundVirtualGridEstimator":
        """Bind an outer relation, yielding a pair-level estimator."""
        return BoundVirtualGridEstimator(self, outer, assignment)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def grid_size(self) -> int:
        """Cells per axis of the virtual grid."""
        return self._grid.shape[0]

    @property
    def max_k(self) -> int:
        """Largest k the per-cell catalogs support."""
        return min(c.max_k for c in self._cell_catalogs)

    def storage_bytes(self) -> int:
        """Serialized size of all per-cell catalogs."""
        return sum(catalog_storage_bytes(c) for c in self._cell_catalogs)

    def cell_catalog(self, cell_index: int) -> IntervalCatalog:
        """The locality catalog of cell ``cell_index`` (row-major)."""
        return self._cell_catalogs[cell_index]

    # ------------------------------------------------------------------
    # Persistence (one catalog set per relation — the linear footprint
    # the technique exists for; persist it once, bind outers forever).
    # ------------------------------------------------------------------
    def to_store(self) -> CatalogStore:
        """Export the per-cell catalogs to a persistable store."""
        bounds = self._grid.bounds
        store = CatalogStore(
            {
                "technique": "virtual-grid",
                "grid_size": str(self.grid_size),
                "bounds": ",".join(
                    repr(v) for v in (bounds.x_min, bounds.y_min, bounds.x_max, bounds.y_max)
                ),
            }
        )
        for i, catalog in enumerate(self._cell_catalogs):
            store.put(f"cell/{i}", catalog)
        return store

    @classmethod
    def from_store(cls, store: CatalogStore) -> "VirtualGridEstimator":
        """Rebuild the grid catalogs from persisted state (no scans).

        Raises:
            ValueError: If the store does not hold Virtual-Grid state.
        """
        if store.metadata.get("technique") != "virtual-grid":
            raise ValueError("store does not hold Virtual-Grid catalogs")
        grid_size = int(store.metadata["grid_size"])
        x_min, y_min, x_max, y_max = (
            float(v) for v in store.metadata["bounds"].split(",")
        )
        estimator = cls.__new__(cls)
        estimator._inner = None  # a store holds no relation to refresh from
        estimator._grid = GridIndex.virtual(Rect(x_min, y_min, x_max, y_max), grid_size)
        estimator._cell_catalogs = [
            store.get(f"cell/{i}") for i in range(grid_size * grid_size)
        ]
        max_k = min(c.max_k for c in estimator._cell_catalogs)
        max_entries = max(c.n_entries for c in estimator._cell_catalogs)
        n_cells = len(estimator._cell_catalogs)
        estimator._k_end_matrix = np.full((n_cells, max_entries), max_k, dtype=np.int64)
        estimator._cost_matrix = np.zeros((n_cells, max_entries))
        for i, catalog in enumerate(estimator._cell_catalogs):
            n = catalog.n_entries
            estimator._k_end_matrix[i, :n] = np.minimum(catalog.k_ends, max_k)
            estimator._cost_matrix[i, :n] = catalog.costs
            estimator._cost_matrix[i, n:] = catalog.costs[-1]
        estimator._workers = 0
        estimator.preprocessing_seconds = 0.0
        estimator.preprocessing_stats = PreprocessingStats(technique="virtual-grid")
        return estimator


class BoundVirtualGridEstimator(JoinCostEstimator):
    """A Virtual-Grid estimator bound to one (outer, inner) pair.

    Adapts :class:`VirtualGridEstimator` to the common
    :class:`~repro.estimators.base.JoinCostEstimator` interface used by
    the benchmark harness.  The storage and preprocessing cost reported
    is the *shared* per-inner grid catalog (the whole point of the
    technique is that binding an outer costs nothing extra).
    """

    def __init__(
        self,
        grid_estimator: VirtualGridEstimator,
        outer,
        assignment: Assignment = "overlap",
    ) -> None:
        self._grid_estimator = grid_estimator
        self._outer = as_snapshot(outer).canonical()
        self._assignment: Assignment = assignment
        self.preprocessing_seconds = grid_estimator.preprocessing_seconds
        self.preprocessing_stats = grid_estimator.preprocessing_stats

    def estimate(self, k: int) -> float:
        """Estimate the bound pair's join cost."""
        return self._grid_estimator.estimate(self._outer, k, self._assignment)

    def storage_bytes(self) -> int:
        """Storage of the shared per-inner grid catalogs."""
        return self._grid_estimator.storage_bytes()
