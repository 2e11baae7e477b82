"""The Catalog-Merge k-NN-Join cost estimator (Section 4.2).

Preprocessing: build a temporary locality catalog (Procedure 2) for a
spatially-distributed sample of outer blocks, then plane-sweep-merge the
temporary catalogs into one per-pair catalog whose entries carry the
*aggregate* locality size of the sample.  Estimation is a single binary-
search lookup scaled by ``n_o / s`` — constant time irrespective of k
and sample size (Figures 17, 18).

The price is a catalog for every ordered relation pair: ``2 * C(n, 2)``
catalogs across an ``n``-table schema (Section 4.2.2), the motivation
for the Virtual-Grid technique.

Preprocessing is :meth:`CatalogMergeEstimator.refresh_incremental` (the
constructor is that call on an empty table): over an inner index that
keeps an update log, the temporaries survive between refreshes with
per-entry coverage radii, and only those a mutation may have changed
are re-derived before the re-merge (see
:mod:`repro.estimators.maintenance`).
"""

from __future__ import annotations

import time

import numpy as np

from repro.catalog import IntervalCatalog, catalog_storage_bytes, merge_sum
from repro.catalog.store import CatalogStore
from repro.estimators.base import JoinCostEstimator, validate_k
from repro.estimators.block_sample import sample_block_indices
from repro.estimators.maintenance import (
    MaintenanceReport,
    RegionKey,
    carry_over,
    patched,
    region_keys,
    stale_entries,
    tracks_updates,
)
from repro.index.snapshot import as_snapshot
from repro.knn.locality import locality_coverage_radii
from repro.perf import PreprocessingStats, locality_size_profiles, resolve_workers

DEFAULT_MAX_K = 2_048


class CatalogMergeEstimator(JoinCostEstimator):
    """Catalog-Merge join-cost estimation for one (outer, inner) pair.

    Args:
        outer: Block summary of the outer relation (index or
            snapshot).
        inner: Block summary of the inner relation.  Incremental
            refreshes need its generation-keyed update log (e.g. a
            :class:`~repro.index.mutable_quadtree.MutableQuadtree`);
            over anything else every refresh is a full rebuild.
        sample_size: Number of outer blocks given temporary catalogs.
        max_k: Largest k the merged catalog supports.
        workers: Worker processes for the locality-profile fan-out;
            ``None``/0/1 computes in-process.

    Raises:
        ValueError: On empty relations or invalid parameters.
    """

    def __init__(
        self,
        outer,
        inner,
        sample_size: int = 1_000,
        max_k: int = DEFAULT_MAX_K,
        *,
        workers: int | None = None,
    ) -> None:
        if max_k < 1:
            raise ValueError(f"max_k must be >= 1, got {max_k}")
        self._outer = outer
        self._inner = inner
        self._requested_sample = sample_size
        self._max_k = max_k
        self._workers = resolve_workers(workers)
        self._sample_rects = np.empty((0, 4), dtype=float)
        self._sample_keys: list[RegionKey] = []
        self._temporaries: list[IntervalCatalog] = []
        self._coverage = np.empty(0, dtype=float)
        self._inner_generation = 0
        self.refresh_incremental(full=True)

    def refresh_incremental(self, *, full: bool = False) -> MaintenanceReport:
        """Re-sample the outer blocks and re-merge the pair catalog.

        Temporaries whose outer block is still in the sample and whose
        coverage disc misses every inner region noted dirty since the
        last refresh are reused; the rest are re-derived.  The merge
        runs in sample order — the order a from-scratch build uses — so
        the merged catalog is bit-for-bit identical to one.

        Raises:
            ValueError: If either relation is currently empty.
        """
        # Canonical row order: the outer sample indexes rows positionally,
        # so a physically reordered snapshot must be viewed canonically
        # for the sampled rects (and the merged catalog) to be layout-
        # independent.
        inner_snap = as_snapshot(self._inner).canonical()
        if inner_snap.n_blocks == 0:
            raise ValueError("cannot estimate joins against an empty inner relation")
        outer_snap = as_snapshot(self._outer).canonical()
        n_outer = outer_snap.n_blocks
        if n_outer == 0:
            raise ValueError("cannot estimate joins over an empty outer relation")

        start = time.perf_counter()
        stats = PreprocessingStats(technique="catalog-merge", workers=self._workers)
        sample = sample_block_indices(n_outer, self._requested_sample)
        rects = outer_snap.rects[sample]
        keys = region_keys(rects)
        stale = stale_entries(
            self._inner,
            self._inner_generation,
            self._sample_rects,
            self._coverage,
            full=full,
        )
        source = carry_over(self._sample_keys, stale, keys)
        missing = np.flatnonzero(source < 0)
        rows = rects[missing]
        with stats.phase("profiles"):
            profiles = locality_size_profiles(
                inner_snap, rows, self._max_k, workers=self._workers
            )
        with stats.phase("merge"):
            built = [
                IntervalCatalog.from_profile(p, max_k=self._max_k).truncated(self._max_k)
                for p in profiles
            ]
            temporaries = patched(self._temporaries, built, source)
            self._catalog = merge_sum(temporaries)
        self._scale = n_outer / sample.shape[0]
        self._sample_size = int(sample.shape[0])
        self._inner_generation = int(inner_snap.data_generation)
        if tracks_updates(self._inner):
            # Only such an inner lets a later refresh reuse temporaries.
            built_coverage = locality_coverage_radii(inner_snap, rows, self._max_k)
            self._coverage = np.array(
                patched(self._coverage, built_coverage, source), dtype=float
            )
            self._sample_rects, self._sample_keys = rects, keys
            self._temporaries = temporaries
        stats.anchors_total = self._sample_size
        stats.anchors_unique = self._sample_size
        stats.profiles_computed = len(missing)
        self.preprocessing_seconds = time.perf_counter() - start
        stats.wall_seconds = self.preprocessing_seconds
        self.preprocessing_stats = stats
        return MaintenanceReport.of_pass(
            full=full,
            generation=self._inner_generation,
            total=len(keys),
            rebuilt=len(missing),
        )

    def estimate(self, k: int) -> float:
        """Estimate the join cost via one catalog lookup.

        Raises:
            repro.catalog.CatalogLookupError: If ``k`` exceeds the
                catalog's ``max_k``.
        """
        validate_k(k)
        return self._catalog.lookup(k) * self._scale

    @property
    def catalog(self) -> IntervalCatalog:
        """The merged per-pair catalog (aggregate over the sample)."""
        return self._catalog

    @property
    def sample_size(self) -> int:
        """Number of outer blocks that contributed temporary catalogs."""
        return self._sample_size

    @property
    def max_k(self) -> int:
        """Largest k the estimator supports."""
        return self._catalog.max_k

    def storage_bytes(self) -> int:
        """Serialized size of the single merged catalog."""
        return catalog_storage_bytes(self._catalog)

    # ------------------------------------------------------------------
    # Persistence: the schema-level experiments build 2*C(n,2) of these
    # offline (Figure 21); a deployed optimizer loads them at startup.
    # ------------------------------------------------------------------
    def to_store(self) -> CatalogStore:
        """Export the merged pair catalog to a persistable store."""
        store = CatalogStore(
            {
                "technique": "catalog-merge",
                "scale": repr(self._scale),
                "sample_size": str(self._sample_size),
            }
        )
        store.put("merged", self._catalog)
        return store

    @classmethod
    def from_store(cls, store: CatalogStore) -> "CatalogMergeEstimator":
        """Rebuild a pair estimator from persisted state (no sampling).

        Raises:
            ValueError: If the store does not hold Catalog-Merge state.
        """
        if store.metadata.get("technique") != "catalog-merge":
            raise ValueError("store does not hold Catalog-Merge catalogs")
        estimator = cls.__new__(cls)
        estimator._outer = estimator._inner = None  # a store holds no relations
        estimator._catalog = store.get("merged")
        estimator._scale = float(store.metadata["scale"])
        estimator._sample_size = int(store.metadata["sample_size"])
        estimator._workers = 0
        estimator.preprocessing_seconds = 0.0
        estimator.preprocessing_stats = PreprocessingStats(technique="catalog-merge")
        return estimator
