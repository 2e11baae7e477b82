"""The Staircase k-NN-Select cost estimator (Section 3).

For every leaf region of a *space-partitioning auxiliary index* the
technique precomputes two interval catalogs:

* the **center-catalog** — the cost-vs-k staircase anchored at the
  region's center (the minimum cost for query points in the region), and
* the **corners-catalog** — the pointwise maximum of the staircases
  anchored at the four corners (the maximum cost, reached at corners
  under the within-block-uniformity assumption; Figure 2).

A query ``(q, k)`` is answered by locating the leaf containing ``q``
(always possible because the auxiliary index partitions space; Section
3.3) and interpolating between the two catalog lookups with the paper's
Equations 1–2::

    cost = C_center + (2 L / Diagonal) * (C_corner - C_center)

where ``L`` is the distance from ``q`` to the region center.  The
Center-Only variant skips the corner lookup and returns ``C_center``.

Catalogs cover ``k <= max_k`` (the paper uses 10,000); larger k falls
back to the density-based estimator over the Count-Index, matching the
query flow of Figure 5.

The paper builds the catalogs once, offline.  Here the build is
:meth:`StaircaseEstimator.refresh_incremental` — the constructor is that
call on an empty table — so the same estimator stays valid under
inserts and deletes by re-profiling only the anchors whose coverage
disc met a mutation (see :mod:`repro.estimators.maintenance`).
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import replace
from typing import Literal, Sequence

import numpy as np

from repro.catalog import (
    IntervalCatalog,
    StackedCatalogs,
    catalog_storage_bytes,
)
from repro.catalog.store import CatalogStore
from repro.estimators.base import SelectCostEstimator, normalize_batch_args
from repro.estimators.density import DensityBasedEstimator
from repro.estimators.maintenance import (
    MaintenanceReport,
    RegionKey,
    dirty_since,
    maximal_regions,
    region_keys,
    spliced,
    tracks_updates,
)
from repro.geometry import Point
from repro.geometry.kernels import mindist_rects_batch, staircase_interpolate
from repro.index.base import Block
from repro.index.locator import BlockLocator
from repro.index.quadtree import Quadtree
from repro.index.snapshot import IndexSnapshot, partition_bounds
from repro.perf import (
    BlockPointsView,
    PreprocessingStats,
    Staircases,
    profile_staircases,
    resolve_workers,
)
from repro.resilience.errors import CatalogCorruptError, StaleCatalogError
from repro.resilience.guards import guard_estimate_batch, guard_estimate_inputs

#: The paper maintains catalogs up to k = 10,000; the reproduction's
#: default is scaled with the dataset (see DESIGN.md §2).
DEFAULT_MAX_K = 2_048

# Cells per dense corner slab: bounds the (leaves, 4, max_k) cost array
# of the stacked max to a few hundred KB whatever the number of leaves.
_DENSE_CELLS = 1 << 18

Variant = Literal["center", "center+corners"]


def build_select_catalog(
    snapshot: IndexSnapshot,
    blocks: Sequence[Block],
    anchor: Point,
    max_k: int,
) -> IntervalCatalog:
    """Procedure 1: build the k-NN-Select cost catalog anchored at a point.

    The one-anchor case of the build: :func:`~repro.perf.profile_staircases`
    read through :func:`_catalogs_from`.

    Args:
        snapshot: Block summary (Count-Index) of the data blocks.
        blocks: The data blocks (points are read — this is the offline
            preprocessing step).
        anchor: The anchor query point (a block center or corner).
        max_k: Largest k the catalog must support.

    Returns:
        The cost-vs-k staircase as an :class:`IntervalCatalog`, padded
        so lookups up to ``max_k`` always succeed even when the dataset
        holds fewer points.
    """
    view = BlockPointsView.from_blocks(blocks)
    staircases = profile_staircases(snapshot, view, [(anchor.x, anchor.y)], max_k)
    return _catalogs_from(staircases, np.zeros((1, 1), dtype=np.int64), max_k)[0][0]


def _catalogs_from(
    table: Staircases, ids: np.ndarray, max_k: int
) -> tuple[list[IntervalCatalog], list[IntervalCatalog]]:
    """The ``(center, corners)`` catalogs of leaves from their anchors' staircases.

    ``ids`` holds each leaf's ``[center, SW, SE, NW, NE]`` anchor slots
    (only the center column for the Center-Only variant).  A center
    catalog is its staircase closed at ``max_k`` (Procedure 1's pad and
    truncate).  A corners catalog is the four corner staircases'
    pointwise maximum over ``k`` in ``[1, max_k]``, run-compressed — the
    one canonical form of the function that ``merge_max`` and its
    coalescing also produce.  Leaves go a slab at a time, so no
    ``(n_leaves, 4, max_k)`` array ever exists.
    """
    n_leaves, per_leaf = ids.shape
    read = table.take(ids[:, 0])
    if read.k_ends.shape[0] == 0:
        # Empty dataset: scanning cost is zero for every k.
        zero = IntervalCatalog.constant(0.0, max_k)
        return [zero] * n_leaves, [zero] * n_leaves if per_leaf > 1 else []
    k_ends, costs = read.k_ends, read.costs.astype(float)
    k_ends[read.ends - 1] = max_k
    center = [
        IntervalCatalog._from_arrays(k_ends[lo:hi], costs[lo:hi])
        for lo, hi in zip(read.starts.tolist(), read.ends.tolist())
    ]
    corners: list[IntervalCatalog] = []
    slab = max(1, _DENSE_CELLS // (4 * max_k))
    for lo in range(0, n_leaves if per_leaf > 1 else 0, slab):
        rows = ids[lo : lo + slab, 1:]
        dense = table.dense(rows.ravel(), max_k).reshape(-1, 4, max_k).max(axis=1)
        last = np.ones(dense.shape, dtype=bool)
        np.not_equal(dense[:, :-1], dense[:, 1:], out=last[:, :-1])
        leaf, col = np.nonzero(last)
        k_ends, costs = col + 1, dense[leaf, col].astype(float)
        ends = np.cumsum(last.sum(axis=1)).tolist()
        corners.extend(
            IntervalCatalog._from_arrays(k_ends[lo:hi], costs[lo:hi])
            for lo, hi in zip([0] + ends[:-1], ends)
        )
    return center, corners


def _leaf_anchors(rects: np.ndarray, per_leaf: int) -> np.ndarray:
    """``(n_leaves * per_leaf, 2)`` anchors: per leaf its center, then (for
    the corners variant) SW, SE, NW, NE — :meth:`Rect.corners` order."""
    centers = (rects[:, 0:2] + rects[:, 2:4]) / 2.0
    if per_leaf == 1:
        return centers
    corners = [rects[:, (0, 1)], rects[:, (2, 1)], rects[:, (0, 3)], rects[:, (2, 3)]]
    return np.stack([centers, *corners], axis=1).reshape(-1, 2)


def _leaf_geometry(rects: np.ndarray) -> np.ndarray:
    """``(n_leaves, 3)`` rows ``(center x, center y, diagonal)`` — the
    floats of :attr:`Rect.center` and :attr:`Rect.diagonal`
    (``math.hypot``, which ``np.hypot`` does not always round like),
    held as columns so that no estimate builds a ``Rect``."""
    geometry = np.empty((rects.shape[0], 3), dtype=float)
    geometry[:, 0] = (rects[:, 0] + rects[:, 2]) / 2.0
    geometry[:, 1] = (rects[:, 1] + rects[:, 3]) / 2.0
    geometry[:, 2] = [
        math.hypot(width, height)
        for width, height in zip(
            (rects[:, 2] - rects[:, 0]).tolist(), (rects[:, 3] - rects[:, 1]).tolist()
        )
    ]
    return geometry


def _partition_of(data_index, aux_index):
    """The auxiliary partition: ``aux_index``, else a quadtree data index."""
    if aux_index is None and not isinstance(data_index, Quadtree):
        raise ValueError(
            "a space-partitioning auxiliary index is required when "
            "the data index is not a quadtree (Section 3.3)"
        )
    return data_index if aux_index is None else aux_index


def _fallback_over(snapshot: IndexSnapshot) -> DensityBasedEstimator | None:
    """The density fallback; an empty index has none, its cost is zero."""
    return DensityBasedEstimator(snapshot) if snapshot.n_blocks else None


def _require_int_metadata(store: CatalogStore, field: str, minimum: int) -> int:
    """Parse an integer metadata field, naming it on any failure.

    Raises:
        CatalogCorruptError: If the field is missing, not an integer,
            or below ``minimum``.
    """
    raw = store.metadata.get(field)
    if raw is None:
        raise CatalogCorruptError(f"store metadata is missing field {field!r}")
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise CatalogCorruptError(
            f"store metadata field {field!r} is not an integer: {raw!r}"
        ) from None
    if value < minimum:
        raise CatalogCorruptError(
            f"store metadata field {field!r} must be >= {minimum}, got {value}"
        )
    return value


class StaircaseEstimator(SelectCostEstimator):
    """Staircase select-cost estimation with precomputed catalogs.

    Args:
        data_index: The index holding the data points whose scan cost is
            being modelled (quadtree or R-tree).
        aux_index: The space-partitioning auxiliary index whose leaf
            regions anchor the catalogs.  Defaults to ``data_index``
            when that index is itself a quadtree (Section 3.3: "the
            auxiliary index can have the same exact structure as the
            data-index"); required when ``data_index`` is
            data-partitioning (e.g. an R-tree).
        max_k: Largest k served from catalogs; larger k falls back to
            the density-based estimator.
        variant: ``"center+corners"`` (Equations 1–2) or ``"center"``.
        workers: Worker processes for the anchor fan-out; ``None``/0/1
            builds in-process.
        snapshot: Optional precomputed columnar summary of
            ``data_index`` (e.g. the
            :class:`~repro.engine.stats.StatisticsManager` cache entry).
            When given, it is used instead of re-walking the index's
            blocks.

    Raises:
        ValueError: If no auxiliary index is available or parameters are
            invalid.
        StaleCatalogError: If ``snapshot`` was gathered at an older data
            generation than the index currently reports.
    """

    def __init__(
        self,
        data_index,
        aux_index: Quadtree | None = None,
        max_k: int = DEFAULT_MAX_K,
        variant: Variant = "center+corners",
        *,
        workers: int | None = None,
        snapshot: IndexSnapshot | None = None,
    ) -> None:
        if variant not in ("center", "center+corners"):
            raise ValueError(f"unknown variant {variant!r}")
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self._aux = _partition_of(data_index, aux_index)
        self._variant: Variant = variant
        self._max_k = max_k
        self._data_index = data_index
        self._workers = resolve_workers(workers)
        generation = int(getattr(data_index, "data_generation", 0))
        if snapshot is not None and snapshot.data_generation != generation:
            raise StaleCatalogError(
                f"snapshot was gathered at data generation "
                f"{snapshot.data_generation}, the index is now at "
                f"{generation}"
            )
        # Catalog construction pairs snapshot rows with the data index's
        # block list positionally; canonicalize so a cache-layout
        # snapshot (e.g. Hilbert) builds byte-identical catalogs to the
        # seed path.  Without one the first refresh gathers its own.
        self._snapshot = None if snapshot is None else snapshot.canonical()
        #: Data generation the catalogs are valid for (0 for immutable
        #: indexes, which never advance).
        self.built_at_generation = generation
        #: Entries dropped because their region stopped being a leaf.
        self.evictions = 0
        self._set_table(np.empty((0, 4), dtype=float), [], [], [])
        self._clear_anchors()
        # preprocessing_seconds is a single-shot wall time feeding
        # Figure 13's millisecond-scale comparisons; a gen-2 collector
        # pause landing inside the shorter build variant would swamp the
        # signal, so the collector is held off while the clock runs.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            self.refresh_incremental(full=True)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _set_table(
        self,
        leaf_rects: np.ndarray,
        leaf_keys: list[RegionKey],
        center: list[IntervalCatalog],
        corners: list[IntervalCatalog],
        lookup: tuple[BlockLocator, np.ndarray] | None = None,
    ) -> None:
        """Install the per-leaf catalog table (rows align with ``leaf_rects``).

        ``leaf_keys`` is ``region_keys(leaf_rects)``, the hashable form.
        Rows run in the auxiliary index's depth-first leaf order.

        Catalogs key by leaf *bounds*, not node identity: one gathered
        ``(n_leaves, 4)`` array serves anchor collection, query-time
        leaf lookup and entry reuse across refreshes alike.

        ``lookup`` is the home-leaf locator with the per-leaf Eq. 1
        geometry over these rows (a splice hands in the old locator
        refiled and the old geometry spliced), or ``None``: then the
        first estimate builds it, so a table no estimate reads pays for
        none.  The stacked lookup columns are dropped and rebuilt on
        first use.
        """
        self._leaf_rects = leaf_rects
        self._leaf_keys = leaf_keys
        self._center_catalogs = center
        self._corner_catalogs = corners  # empty for the Center-Only variant
        self._leaf_lookup = lookup
        self._stacked: tuple[StackedCatalogs, StackedCatalogs | None, bool] | None = None
        bounds = np.array(self._aux.bounds.as_tuple())
        self._bounds = (bounds[:2], bounds[2:])  # (x_min, y_min), (x_max, y_max)

    def _clear_anchors(self) -> None:
        """Forget the per-anchor state: the next refresh gathers everything.

        ``_anchors`` / ``_staircases`` are every unique anchor's
        coordinates and staircase (with its coverage radius), by slot,
        and ``_anchor_ids[i]`` names leaf ``i``'s anchor slots.  The points
        view and ``_leaf_counts`` (points per leaf, kept only when the
        data index is its own partition) are what a splice needs
        besides.
        """
        self._anchors: np.ndarray | None = None
        self._staircases: Staircases | None = None
        self._anchor_ids: np.ndarray | None = None
        self._leaf_counts: np.ndarray | None = None
        self._view: BlockPointsView | None = None

    def _home_leaves(self) -> tuple[BlockLocator, np.ndarray]:
        """The leaf locator and the ``(n_leaves, 3)`` Eq. 1 geometry
        (:func:`_leaf_geometry`)."""
        if self._leaf_lookup is None:
            rects = self._leaf_rects
            self._leaf_lookup = (
                BlockLocator(rects, self._aux.bounds.as_tuple()),
                _leaf_geometry(rects),
            )
        return self._leaf_lookup

    def _stacked_catalogs(self) -> tuple[StackedCatalogs, StackedCatalogs | None, bool]:
        """The ``(center, corners)`` catalogs as batch lookup columns, and
        whether any of them ends below ``max_k`` (a damaged store)."""
        if self._stacked is None:
            center = StackedCatalogs(self._center_catalogs)
            corners = StackedCatalogs(self._corner_catalogs) if self._corner_catalogs else None
            short = any((s.max_ks < self._max_k).any() for s in (center, corners) if s)
            self._stacked = (center, corners, short)
        return self._stacked

    # ------------------------------------------------------------------
    # Build and maintenance
    # ------------------------------------------------------------------
    def refresh_incremental(self, *, full: bool = False) -> MaintenanceReport:
        """Bring every auxiliary leaf's catalogs up to the current data.

        The catalogs are read off per-anchor staircases, and an anchor
        whose own coverage disc misses every region the data index
        noted dirty since the last refresh keeps its staircase — it is
        bit-for-bit what a from-scratch build would produce.  Only the
        other anchors and those of new leaves are profiled, and only the
        leaves that reference one are re-assembled, by the same routines
        that built them at construction.  When the data index is its own
        partition, the leaves and blocks under each maximal dirty region
        are spliced into the table, the block summary, the points view
        and the home-leaf lookups in place of their old run (see
        :meth:`_splice`).  With
        ``full=True``, when the index cannot say what changed, or on the
        first refresh of a restored estimator, everything is gathered
        and profiled afresh.

        Returns:
            A :class:`MaintenanceReport` with the rebuilt/reused split.
        """
        generation = int(getattr(self._data_index, "data_generation", 0))
        if not full and generation == self.built_at_generation:
            return MaintenanceReport.of_pass(
                full=False, generation=generation, total=len(self._leaf_keys), rebuilt=0
            )
        dirty = None
        if self._staircases is not None:
            dirty = dirty_since(self._data_index, self.built_at_generation, full=full)
        if dirty is None:
            new_rows, near = self._gather(generation), np.zeros(0, dtype=bool)
        else:
            regions = maximal_regions(dirty)
            near = (
                mindist_rects_batch(self._anchors, regions) <= self._staircases.radii[:, None]
            ).any(axis=1)
            if self._leaf_counts is not None and self._view is not None:
                new_rows = self._splice(regions, generation)
            else:
                # A separate auxiliary index is static: only the blocks moved.
                self._snapshot = IndexSnapshot.from_index(self._data_index)
                self._view = None
                new_rows = np.empty(0, dtype=np.int64)
        self._fallback = _fallback_over(self._snapshot)
        rebuilt = self._rebuild(new_rows, near)
        if not tracks_updates(self._data_index):
            self._clear_anchors()  # every later refresh of this index gathers
        elif self._leaf_counts is None:
            self._view = None  # only a splice reuses the points
        self.built_at_generation = generation
        return MaintenanceReport.of_pass(
            full=full, generation=generation, total=len(self._leaf_keys), rebuilt=rebuilt
        )

    def _gather(self, generation: int) -> np.ndarray:
        """Gather the block summary and the leaf table afresh; every leaf is new.

        Returns:
            The rows of the leaves to build: all of them.
        """
        if self._snapshot is None or self._snapshot.data_generation != generation:
            self._snapshot = IndexSnapshot.from_index(self._data_index)
        self._view = None
        leaf_rects = partition_bounds(self._aux)
        keys = region_keys(leaf_rects)
        self.evictions += len(set(self._leaf_keys).difference(keys))
        self._leaf_counts = None
        if self._aux is self._data_index and hasattr(self._aux, "leaves_under"):
            # Blocks are the non-empty leaves, in the same order.
            counts = dict(zip(region_keys(self._snapshot.rects), self._snapshot.counts.tolist()))
            self._leaf_counts = np.array([counts.get(key, 0) for key in keys], dtype=np.int64)
        n = len(keys)
        both = self._variant == "center+corners"
        self._set_table(leaf_rects, keys, [None] * n, [None] * n if both else [])
        self._anchor_ids = np.full((n, 5 if both else 1), -1, dtype=np.int64)
        self._anchors = np.empty((0, 2), dtype=float)
        # The staircases of no anchor (a full build replaces them).
        self._staircases = Staircases(
            [0], np.empty(0, dtype=np.int64), np.empty(0, dtype=np.uint8), np.empty(0)
        )
        return np.arange(n)

    def _splice(self, regions: np.ndarray, generation: int) -> np.ndarray:
        """Replace each maximal dirty region's leaves and blocks with those under it now.

        The update log notes every leaf that changed, split or merged,
        so outside the maximal dirty regions (``regions``) no leaf and
        no block changed, and each region was a node before the
        mutations and still is.  Its leaves are one contiguous run of
        the depth-first leaf table, and its non-empty ones one run of
        the block summary and of the points view; each run is replaced
        by what :meth:`~repro.index.mutable_quadtree.MutableQuadtree.leaves_under`
        reads now.  The result equals a gather over the whole tree,
        array for array.

        Returns:
            The rows of the new leaves.
        """
        rects = self._leaf_rects
        inside = (
            (rects[:, None, :2] >= regions[None, :, :2])
            & (rects[:, None, 2:] <= regions[None, :, 2:])
        ).all(axis=2)
        firsts = inside.argmax(axis=0)
        filled = np.zeros(rects.shape[0] + 1, dtype=np.int64)
        np.cumsum(self._leaf_counts > 0, out=filled[1:])
        leaf_runs, block_runs, runs = [], [], []
        for j in np.argsort(firsts).tolist():
            lo = int(firsts[j])
            hi = lo + int(inside[:, j].sum())
            leaf_runs.append((lo, hi))
            block_runs.append((int(filled[lo]), int(filled[hi])))
            runs.append(self._data_index.leaves_under(tuple(regions[j].tolist())))
        new_rects = [np.array([leaf.rect.as_tuple() for leaf in run]) for run in runs]
        new_counts = [np.array([len(leaf.points_list) for leaf in run]) for run in runs]
        new_keys = [region_keys(r) for r in new_rects]
        for (lo, hi), keys in zip(leaf_runs, new_keys):
            self.evictions += len(set(self._leaf_keys[lo:hi]).difference(keys))

        snapshot = self._snapshot
        block_rects = spliced(
            snapshot.rects, block_runs, [r[c > 0] for r, c in zip(new_rects, new_counts)]
        )
        self._snapshot = replace(
            snapshot,
            rects=block_rects,
            counts=spliced(snapshot.counts, block_runs, [c[c > 0] for c in new_counts]),
            centers=(block_rects[:, 0:2] + block_rects[:, 2:4]) / 2.0,
            block_ids=np.arange(block_rects.shape[0]),
            data_generation=generation,
        )
        self._view = self._view.spliced(
            block_runs,
            [
                BlockPointsView(
                    np.array([p for leaf in run for p in leaf.points_list], dtype=float),
                    np.concatenate([[0], np.cumsum(c[c > 0])]),
                )
                for run, c in zip(runs, new_counts)
            ],
        )

        per_leaf = self._anchor_ids.shape[1]
        self._leaf_counts = spliced(self._leaf_counts, leaf_runs, new_counts)
        self._anchor_ids = spliced(
            self._anchor_ids, leaf_runs, [np.full((len(run), per_leaf), -1) for run in runs]
        )
        unbuilt = [[None] * len(run) for run in runs]
        rects, lookup = spliced(rects, leaf_runs, new_rects), self._leaf_lookup
        if lookup is not None and not np.array_equal(rects, self._leaf_rects):  # split or merge
            lookup = (
                lookup[0].refiled(rects),
                spliced(lookup[1], leaf_runs, [_leaf_geometry(r) for r in new_rects]),
            )
        self._set_table(
            rects,
            spliced(self._leaf_keys, leaf_runs, new_keys),
            spliced(self._center_catalogs, leaf_runs, unbuilt),
            spliced(self._corner_catalogs, leaf_runs, unbuilt) if per_leaf > 1 else [],
            lookup,
        )
        return np.flatnonzero(self._anchor_ids[:, 0] < 0)

    def _rebuild(self, new_rows: np.ndarray, near: np.ndarray) -> int:
        """Profile what changed and re-assemble the leaves that read it.

        The anchors to profile are those of the leaves at ``new_rows``
        (whose anchor ids are ``-1``) and every live anchor that
        ``near`` marks — its disc reaches a dirty region — deduped with
        one ``np.unique``, so a corner shared by four leaves is profiled
        once, in one :func:`~repro.perf.profile_staircases` pass.  The
        table is updated in place: a re-profiled anchor keeps its slot,
        the others take the slots of anchors no leaf references any
        more, then new ones, and slots left dead are closed up.  No two
        live slots share an anchor: a new leaf's anchors lie on a dirty
        region, so ``near`` marks a live anchor at the same point.
        :func:`_catalogs_from` re-assembles every leaf that references a
        profiled anchor.  A staircase is a pure function of the blocks
        and its anchor, so the rows equal a full build's, byte for byte
        (``tests/reference_builds.py`` holds the per-leaf oracle).

        Returns:
            The number of leaves re-assembled.
        """
        start = time.perf_counter()
        stats = PreprocessingStats(technique="staircase", workers=self._workers)
        ids, table = self._anchor_ids, self._staircases
        size, per_leaf = near.shape[0], ids.shape[1]
        with stats.phase("collect"):
            live = np.bincount(ids.ravel() + 1, minlength=size + 1)[1:] > 0
            near &= live
            stale = np.flatnonzero(near)
            # A new leaf's ids are -1, which reads the appended True.
            rebuilt = np.flatnonzero(np.append(near, True)[ids].any(axis=1))
            coords = np.concatenate(
                [self._anchors[stale], _leaf_anchors(self._leaf_rects[new_rows], per_leaf)]
            )
            # Row-wise unique over complex keys: numpy orders complex
            # numbers by real, then imaginary part, as ``axis=0`` orders
            # rows, at a fraction of its cost.
            keys = np.empty(coords.shape[0], dtype=complex)
            keys.real, keys.imag = coords[:, 0], coords[:, 1]
            unique, inverse = np.unique(keys, return_inverse=True)
            slots = np.full(unique.shape[0], -1, dtype=np.int64)
            slots[inverse[: stale.shape[0]]] = stale
            fresh, dead = np.flatnonzero(slots < 0), np.flatnonzero(~live)
            slots[fresh] = np.append(dead, np.arange(size, size + fresh.shape[0]))[: fresh.shape[0]]
            ids[new_rows] = slots[inverse.reshape(-1)[stale.shape[0] :]].reshape(-1, per_leaf)
            holes = dead[fresh.shape[0] :]
            if holes.shape[0]:  # more anchors died than are new: close the gaps
                keep = np.setdiff1d(np.arange(size), holes)
                remap = np.full(size, -1, dtype=np.int64)
                remap[keep] = np.arange(keep.shape[0])
                ids[:], slots = remap[ids], remap[slots]
                self._anchors, self._staircases = self._anchors[keep], table.take(keep)
                size, table = keep.shape[0], self._staircases
        stats.anchors_total = per_leaf * rebuilt.shape[0]
        stats.anchors_unique = stats.profiles_computed = unique.shape[0]

        if unique.shape[0]:
            with stats.phase("profiles"):
                anchors = np.stack([unique.real, unique.imag], axis=1)
                staircases = profile_staircases(
                    self._snapshot, self._points_view(), anchors, self._max_k, self._workers
                )
            if size == 0:  # a full build: every slot, in slot order
                self._anchors, self._staircases = anchors, staircases
            else:
                grow = int(slots.max()) + 1 - self._anchors.shape[0]
                if grow > 0:
                    self._anchors = np.concatenate([self._anchors, np.empty((grow, 2))])
                self._anchors[slots] = anchors
                table.put(slots, staircases)
        with stats.phase("assemble"):
            center, corners = _catalogs_from(self._staircases, ids[rebuilt], self._max_k)
            for row, catalog in zip(rebuilt.tolist(), center):
                self._center_catalogs[row] = catalog
            for row, catalog in zip(rebuilt.tolist(), corners):
                self._corner_catalogs[row] = catalog
        self._stacked = None  # its columns (and facts) are the replaced catalogs'
        self.preprocessing_seconds = stats.wall_seconds = time.perf_counter() - start
        self.preprocessing_stats = stats
        return rebuilt.shape[0]

    def _points_view(self) -> BlockPointsView:
        """The columnar points of the data blocks: the index's own view."""
        if self._view is None:
            self._view = self._data_index.points_view
        return self._view

    # ------------------------------------------------------------------
    # Estimation (Section 3.3)
    # ------------------------------------------------------------------
    def _answering(self, variant: Variant | None) -> Variant:
        """The variant to answer with, once the catalogs are current and hold it."""
        if self.is_stale:
            raise StaleCatalogError(
                f"catalogs were built at data generation {self.built_at_generation}, "
                f"the index is now at {getattr(self._data_index, 'data_generation', 0)}"
            )
        variant = self._variant if variant is None else variant
        if variant == "center+corners" and self._variant == "center":
            raise ValueError("corner catalogs were not built; construct with center+corners")
        return variant

    def estimate(self, query: Point, k: int, variant: Variant | None = None) -> float:
        """Estimate the distance-browsing cost of ``σ_kNN,query``.

        Queries with ``k`` beyond the catalog limit are routed to the
        density-based estimator over the Count-Index (Figure 5).

        Args:
            query: The query focal point.
            k: Number of neighbors requested.
            variant: Per-call override of the construction-time variant.
                A ``"center+corners"`` estimator can serve
                ``"center"``-only estimates from its existing catalogs;
                the reverse raises because the corner catalogs were
                never built.

        Raises:
            InvalidQueryError: On a non-finite focal point or ``k < 1``.
            StaleCatalogError: If the underlying index mutated after the
                catalogs were last refreshed (answering would use dead
                statistics; call :meth:`refresh_incremental` first, or
                use :class:`MaintainedStaircaseEstimator`, which does).
            ValueError: If a ``"center+corners"`` estimate is requested
                from a Center-Only estimator.
        """
        guard_estimate_inputs(query, k)
        variant = self._answering(variant)
        if k > self._max_k or not self._aux.bounds.contains_point(query):
            # The paper guarantees in-bounds queries fall inside an
            # auxiliary leaf; focal points outside the indexed space
            # (legal for k-NN) are served by the density-based fallback.
            return self._fallback.estimate(query, k) if self._fallback else 0.0
        locator, geometry = self._home_leaves()
        leaf_id = locator.home_of(query.x, query.y)
        if leaf_id < 0:
            raise ValueError(f"no partition leaf contains ({query.x}, {query.y})")
        c_center = self._center_catalogs[leaf_id].lookup(k)
        if variant == "center":
            return c_center
        c_corner = self._corner_catalogs[leaf_id].lookup(k)
        center_x, center_y, diagonal = geometry[leaf_id].tolist()
        if diagonal == 0.0:
            return c_center
        # Equations 1-2, mirroring the array kernel op for op.  The
        # scalar ``np.hypot`` is the same libm call the kernel's array
        # path makes (never ``math``'s correctly-rounded hypot),
        # so scalar and batched estimates agree bitwise — without
        # paying three array allocations per query.
        dist = np.hypot(query.x - center_x, query.y - center_y)
        delta = c_corner - c_center  # Equation 2
        return float(c_center + (2.0 * dist / diagonal) * delta)  # Equation 1

    def estimate_batch(self, queries, ks, variant: Variant | None = None) -> np.ndarray:
        """Vectorized :meth:`estimate` over a whole query batch.

        A constant number of array calls however many leaves the index
        has.  One certificate — every point finite and inside the
        auxiliary bounds, every k in ``[1, max_k]`` — clears an ordinary
        batch; only a batch that fails it runs the guard sweep and sends
        rows past the catalog limit or the auxiliary universe to the
        density fallback's own batch path, as the scalar flow routes
        them (Figure 5).  The rest take one :class:`BlockLocator` pass,
        one stacked-catalog gather per variant and one Eq. 1–2 kernel.

        Bit-identity with the scalar path is part of the contract: both
        read the same per-leaf center/diagonal floats and the Eq. 1
        interpolation is the
        :func:`~repro.geometry.kernels.staircase_interpolate` kernel,
        whose operation order the scalar path mirrors, so element ``i``
        equals ``estimate(Point(*queries[i]), ks[i])`` exactly.

        Args:
            queries: ``(m, 2)`` array-like of query coordinates.
            ks: ``(m,)`` per-query k values, or a scalar applied to all.
            variant: Per-call variant override (see :meth:`estimate`).

        Returns:
            ``(m,)`` float64 array of estimated block-scan costs.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        m = pts.shape[0]
        lo, hi = self._bounds
        inside = (lo <= pts) & (pts <= hi)
        in_range = np.count_nonzero((1 <= ks_arr) & (ks_arr <= self._max_k))
        ordinary = m > 0 and np.count_nonzero(inside) == 2 * m and in_range == m
        if not ordinary:
            guard_estimate_batch(pts, ks_arr)
        variant = self._answering(variant)
        xs, ys, fast_ks = pts[:, 0], pts[:, 1], ks_arr
        if not ordinary:
            out = np.empty(m, dtype=float)
            routed = (ks_arr > self._max_k) | ~inside.all(axis=1)
            if routed.any():
                out[routed] = (
                    self._fallback.estimate_batch(pts[routed], ks_arr[routed])
                    if self._fallback
                    else 0.0
                )
            fast = np.flatnonzero(~routed)
            if fast.shape[0] == 0:
                return out
            xs, ys, fast_ks = xs[fast], ys[fast], ks_arr[fast]
        locator, geometry = self._home_leaves()
        leaf_ids = locator.home(xs, ys)
        if np.count_nonzero(leaf_ids < 0):
            j = int(np.argmax(leaf_ids < 0))
            raise ValueError(f"no partition leaf contains ({float(xs[j])}, {float(ys[j])})")
        center, corners, short_catalogs = self._stacked_catalogs()
        if short_catalogs:
            short = fast_ks > center.max_ks[leaf_ids]
            if variant != "center":
                short |= fast_ks > corners.max_ks[leaf_ids]
            if short.any():
                # A catalog shorter than ``max_k``: raise what the
                # lowest such leaf's own catalogs raise.
                leaf_id = int(leaf_ids[short].min())
                leaf_ks = fast_ks[leaf_ids == leaf_id]
                self._center_catalogs[leaf_id].lookup_many(leaf_ks)
                self._corner_catalogs[leaf_id].lookup_many(leaf_ks)
        costs = center.lookup(leaf_ids, fast_ks)
        if variant != "center":
            home = geometry[leaf_ids]
            c_corner = corners.lookup(leaf_ids, fast_ks)
            costs = staircase_interpolate(xs, ys, home[:, 0], home[:, 1], home[:, 2], costs, c_corner)
        if ordinary:
            return costs
        out[fast] = costs
        return out

    # ------------------------------------------------------------------
    # Persistence: a production optimizer builds catalogs offline and
    # loads them at startup (Figure 5's "Catalog" component).
    # ------------------------------------------------------------------
    def to_store(self) -> CatalogStore:
        """Export all catalogs to a persistable :class:`CatalogStore`."""
        store = CatalogStore(
            {
                "technique": "staircase",
                "variant": self._variant,
                "max_k": str(self._max_k),
                "n_leaves": str(self._leaf_rects.shape[0]),
                "data_generation": str(self.built_at_generation),
            }
        )
        for leaf_id, catalog in enumerate(self._center_catalogs):
            store.put(f"center/{leaf_id}", catalog)
        for leaf_id, catalog in enumerate(self._corner_catalogs):
            store.put(f"corners/{leaf_id}", catalog)
        return store

    @classmethod
    def from_store(
        cls,
        data_index,
        store: CatalogStore,
        aux_index: Quadtree | None = None,
    ) -> "StaircaseEstimator":
        """Rebuild an estimator from persisted catalogs (no preprocessing).

        The data and auxiliary indexes must be the ones the store was
        built from; a leaf-count mismatch is rejected.  A store records
        no staircases and no coverage radii, so the first
        :meth:`refresh_incremental` after a mutation rebuilds everything
        rather than trust an entry it cannot test.

        Raises:
            ValueError: If the store does not describe a Staircase
                estimator matching the given auxiliary index.
            CatalogCorruptError: If the store's metadata is malformed —
                unknown ``variant``, non-integer or out-of-range
                ``max_k``/``n_leaves``/``data_generation``, or missing
                fields.  (Also a ``ValueError``.)  Validating here keeps
                a corrupted store from passing construction and
                surfacing later as a bare ``KeyError`` inside
                :meth:`estimate`.
            StaleCatalogError: If the store was built at an older data
                generation than the index currently reports.
        """
        if store.metadata.get("technique") != "staircase":
            raise ValueError("store does not hold Staircase catalogs")
        variant = store.metadata.get("variant")
        if variant not in ("center", "center+corners"):
            raise CatalogCorruptError(
                f"store metadata field 'variant' is {variant!r}; expected "
                "'center' or 'center+corners'"
            )
        max_k = _require_int_metadata(store, "max_k", minimum=1)
        n_leaves = _require_int_metadata(store, "n_leaves", minimum=0)
        current_generation = int(getattr(data_index, "data_generation", 0))
        stored_generation = store.metadata.get("data_generation")
        if stored_generation is not None:
            try:
                stored_generation = int(stored_generation)
            except (TypeError, ValueError):
                raise CatalogCorruptError(
                    f"store metadata field 'data_generation' is not an "
                    f"integer: {stored_generation!r}"
                ) from None
            if stored_generation != current_generation:
                raise StaleCatalogError(
                    f"store was built at data generation {stored_generation}, "
                    f"the index is now at {current_generation}"
                )
        aux_index = _partition_of(data_index, aux_index)
        if n_leaves != len(aux_index.leaves):
            raise ValueError(
                f"store was built over {n_leaves} auxiliary leaves, the "
                f"given index has {len(aux_index.leaves)}"
            )
        center: list[IntervalCatalog] = []
        corners: list[IntervalCatalog] = []
        for leaf_id in range(n_leaves):
            try:
                center.append(store.get(f"center/{leaf_id}"))
                if variant == "center+corners":
                    corners.append(store.get(f"corners/{leaf_id}"))
            except KeyError as exc:
                raise CatalogCorruptError(
                    f"store is missing catalog entry {exc.args[0]!r} "
                    f"(leaf {leaf_id} of {n_leaves})"
                ) from None
        estimator = cls.__new__(cls)
        estimator._aux = aux_index
        estimator._variant = variant
        estimator._max_k = max_k
        estimator._data_index = data_index
        estimator.built_at_generation = current_generation
        estimator._snapshot = IndexSnapshot.from_index(data_index)
        estimator._fallback = _fallback_over(estimator._snapshot)
        # Leaf lookup keys by bounds, not node identity: the restored
        # estimator works even if the auxiliary index was itself rebuilt
        # (equal geometry, different node objects).
        leaf_rects = partition_bounds(aux_index)
        estimator._set_table(leaf_rects, region_keys(leaf_rects), center, corners)
        estimator._clear_anchors()
        estimator.evictions = 0
        estimator._workers = 0
        estimator.preprocessing_seconds = 0.0
        estimator.preprocessing_stats = PreprocessingStats(technique="staircase")
        return estimator

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    @property
    def variant(self) -> Variant:
        """Which estimation variant this instance uses."""
        return self._variant

    @property
    def max_k(self) -> int:
        """Largest k served from catalogs."""
        return self._max_k

    @property
    def workers(self) -> int:
        """Worker processes the build was configured with (0 = serial)."""
        return self._workers

    @property
    def is_stale(self) -> bool:
        """Whether the data index mutated after the catalogs were built.

        Always ``False`` over immutable indexes; over a
        :class:`~repro.index.mutable_quadtree.MutableQuadtree` it flips
        as soon as an insert or delete lands, and back once
        :meth:`refresh_incremental` has run.
        """
        return int(getattr(self._data_index, "data_generation", 0)) != self.built_at_generation

    def storage_bytes(self) -> int:
        """Total serialized size of all maintained catalogs."""
        total = sum(catalog_storage_bytes(c) for c in self._center_catalogs)
        total += sum(catalog_storage_bytes(c) for c in self._corner_catalogs)
        return total

    def catalog_entries(
        self,
    ) -> dict[RegionKey, tuple[IntervalCatalog, IntervalCatalog | None]]:
        """The per-leaf ``(center, corners)`` catalogs keyed by leaf bounds.

        ``corners`` is ``None`` for the Center-Only variant.
        """
        corners = self._corner_catalogs or [None] * len(self._leaf_keys)
        return dict(zip(self._leaf_keys, zip(self._center_catalogs, corners)))

    def n_catalogs(self) -> int:
        """Number of catalogs kept (1 or 2 per auxiliary leaf)."""
        return len(self._center_catalogs) + len(self._corner_catalogs)


class MaintainedStaircaseEstimator(StaircaseEstimator):
    """A :class:`StaircaseEstimator` that refreshes itself before answering.

    The mutable index is its own auxiliary index (it is
    space-partitioning), and where the plain estimator raises
    :class:`~repro.resilience.errors.StaleCatalogError` after an insert
    or delete, this one first calls
    :meth:`~StaircaseEstimator.refresh_incremental`.  Everything else —
    build, reconcile, interpolation, persistence — is the base class.

    Args:
        index: The mutable data index.
        max_k: Catalog limit.
        workers: Worker processes for the rebuild fan-out.
    """

    def __init__(
        self, index, max_k: int = DEFAULT_MAX_K, *, workers: int | None = None
    ) -> None:
        super().__init__(index, aux_index=index, max_k=max_k, workers=workers)

    def estimate(self, query: Point, k: int, variant: Variant | None = None) -> float:
        """:meth:`StaircaseEstimator.estimate` against the *current* data."""
        if self.is_stale:
            self.refresh_incremental()
        return super().estimate(query, k, variant)

    def estimate_batch(self, queries, ks, variant: Variant | None = None) -> np.ndarray:
        """:meth:`StaircaseEstimator.estimate_batch` against the *current* data."""
        if self.is_stale:
            self.refresh_incremental()
        return super().estimate_batch(queries, ks, variant)
