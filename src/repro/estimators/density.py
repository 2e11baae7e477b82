"""The density-based k-NN-Select cost estimator (the paper's baseline).

This is the technique of Tao, Zhang, Papadias & Mamoulis (TKDE 2004,
[24] in the paper) as the paper describes it for non-uniform data:

1. Scan the blocks of the Count-Index in MINDIST order from the query
   point ``q``, starting with the block containing ``q``.
2. Maintain the *combined density* (total count / total area) of the
   examined blocks, assuming points are uniform within each block.
3. From the combined density ``ρ``, compute the radius of a circle
   expected to contain ``k`` points: ``D_k = sqrt(k / (π ρ))``.
4. Repeat — examining further blocks and recomputing ``ρ`` and ``D_k`` —
   until the ``D_k`` circle is fully contained within the examined
   region, which for a space partition is equivalent to the next
   unexamined block lying at MINDIST >= ``D_k``.
5. The cost estimate is the number of blocks overlapping the circle of
   radius ``D_k`` centred at ``q``, i.e. blocks with MINDIST < ``D_k``.

The estimator maintains no catalogs: its storage overhead is just the
Count-Index densities (Figure 14) and its estimation time grows with
``k`` because low densities or large ``k`` force the scan to keep
extending its search region (Figure 12) — both effects reproduce.

Since the snapshot refactor the expanding scan is fully vectorized over
the :class:`~repro.index.snapshot.IndexSnapshot` columns: cumulative
densities, ``D_k`` radii and the termination index come out of one
ufunc chain whose floating-point operation order matches the original
scalar loop exactly (sequential ``cumsum`` accumulation, elementwise
division and square root), so estimates are bit-identical to the
per-leaf path — asserted by ``tests/test_snapshot_equivalence.py``.
One ``(m, n)`` tableau answers a whole query batch; a scalar estimate
is row 0 of a batch of one.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import (
    SelectCostEstimator,
    normalize_batch_args,
    validate_k,
)
from repro.geometry import Point
from repro.geometry.kernels import as_anchor, mindist_rects_batch, tie_stable_argsort
from repro.index.snapshot import IndexSnapshot, as_snapshot
from repro.resilience.guards import require_valid_ks


class DensityBasedEstimator(SelectCostEstimator):
    """Density-based select-cost estimation over block summaries.

    Args:
        snapshot: Block summary of the data index — an
            :class:`~repro.index.snapshot.IndexSnapshot`, or the index
            itself (anything
            :func:`~repro.index.snapshot.as_snapshot` accepts).
    """

    def __init__(self, snapshot) -> None:
        snapshot = as_snapshot(snapshot)
        if snapshot.n_blocks == 0:
            raise ValueError("cannot estimate over an empty index")
        self._snapshot = snapshot

    @property
    def snapshot(self) -> IndexSnapshot:
        """The block summary the estimator scans."""
        return self._snapshot

    def estimate(self, query: Point, k: int) -> float:
        """Estimate the distance-browsing cost of ``σ_kNN,query``.

        Returns at least 1 (the block at the query location is always
        scanned).
        """
        return float(self.estimate_many(as_anchor(query)[None, :2], k)[0])

    def estimate_dk(self, query: Point, k: int) -> float:
        """Estimate ``D_k``: the k-NN radius around ``query``.

        This is the core iteration of the density-based algorithm and is
        exposed separately because ``D_k`` itself is a useful statistic
        (e.g. for selectivity of distance predicates).
        """
        validate_k(k)
        return float(self._search(as_anchor(query)[None, :2], k)[0][0])

    def estimate_many(self, queries, k: int) -> np.ndarray:
        """Estimate costs for a whole batch of query points at once.

        One ``(m, n)`` MINDIST tableau covers every query; row ``i`` is
        ``estimate(Point(*queries[i]), k)``.

        Args:
            queries: ``(m, 2)`` array of query coordinates.
            k: Number of neighbors.

        Returns:
            ``(m,)`` float array of cost estimates.
        """
        validate_k(k)
        queries = np.asarray(queries, dtype=float).reshape(-1, 2)
        if queries.shape[0] == 0:
            return np.empty(0, dtype=float)
        final, sorted_min = self._search(queries, k)
        # Blocks overlapping the D_k circle: MINDIST strictly below D_k.
        costs = (sorted_min < final[:, None]).sum(axis=1)
        return np.maximum(costs, 1).astype(float)

    def estimate_batch(self, queries, ks) -> np.ndarray:
        """Vectorized :meth:`estimate` with per-query k values.

        Groups the batch by distinct k and answers each group with one
        :meth:`estimate_many` tableau, so a mixed-k workload costs one
        vectorized pass per distinct k instead of one scalar expansion
        per query.  Element ``i`` is bit-identical to
        ``estimate(Point(*queries[i]), ks[i])``.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        require_valid_ks(ks_arr)
        out = np.empty(pts.shape[0], dtype=float)
        for k in np.unique(ks_arr):
            mask = ks_arr == k
            out[mask] = self.estimate_many(pts[mask], int(k))
        return out

    @staticmethod
    def _dk_tableau(
        sorted_min: np.ndarray, counts: np.ndarray, areas: np.ndarray, k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-prefix ``D_k`` radii and the termination index per row.

        Args:
            sorted_min: ``(m, n)`` MINDISTs in scan order.
            counts: ``(m, n)`` block counts in the same order.
            areas: ``(m, n)`` block areas in the same order.
            k: Number of neighbors.

        Returns:
            ``(d_k, stop)`` where ``d_k[i, j]`` is the radius after
            examining prefix ``j`` of row ``i`` (inf while the combined
            density is undefined) and ``stop[i]`` is the first prefix
            whose ``D_k`` circle fits inside the examined region.
        """
        # Sequential accumulation: cumsum adds in scan order, matching
        # the reference loop's float64 accumulation exactly.
        cum_counts = np.cumsum(counts, axis=1, dtype=float)
        cum_areas = np.cumsum(areas, axis=1, dtype=float)
        defined = (cum_areas > 0) & (cum_counts > 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            density = cum_counts / cum_areas
            d_k = np.where(defined, np.sqrt(k / (np.pi * density)), np.inf)
        # Termination after prefix j: the next unexamined block lies at
        # MINDIST >= D_k (always true at j = n-1, where "next" is inf).
        next_min = np.concatenate(
            [sorted_min[:, 1:], np.full((sorted_min.shape[0], 1), np.inf)], axis=1
        )
        stop = np.argmax(next_min >= d_k, axis=1)
        return d_k, stop

    def _search(self, queries: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Run the expanding MINDIST scan for ``(m, 2)`` queries.

        Returns:
            ``(final D_k, sorted MINDISTs)`` — ``(m,)`` and ``(m, n)``.
        """
        snap = self._snapshot
        mindists = mindist_rects_batch(queries, snap.rects)
        # Tie-corrected so the scan sequence matches the canonical
        # layout's whatever the snapshot's physical row order.
        order = tie_stable_argsort(mindists, snap.tie_order)
        sorted_min = np.take_along_axis(mindists, order, axis=1)
        d_k, stop = self._dk_tableau(sorted_min, snap.counts[order], snap.areas[order], k)
        rows = np.arange(queries.shape[0])
        final = d_k[rows, stop]
        # Degenerate geometry (zero combined area throughout): fall back
        # to the farthest examined MINDIST.
        degenerate = ~np.isfinite(final)
        if np.any(degenerate):
            final[degenerate] = sorted_min[
                rows[degenerate], np.minimum(stop[degenerate] + 1, snap.n_blocks - 1)
            ]
        return final, sorted_min

    def storage_bytes(self) -> int:
        """Only the Count-Index statistics are kept (no catalogs)."""
        return self._snapshot.n_blocks * (4 * 8 + 8)
