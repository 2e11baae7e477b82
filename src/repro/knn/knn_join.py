"""The k-NN-Join operator.

``R ⋉_kNN S`` pairs every point of the outer relation ``R`` with its k
nearest points of the inner relation ``S``.  The state-of-the-art
processing strategy (Section 2) is *locality-based* and block-by-block:
for each outer block, compute its locality in the inner relation once,
then answer every outer point's k-NN by scanning only the locality.

The cost model of the paper — and therefore the ground truth of every
join estimator — is the total number of inner blocks scanned, which is
the sum of locality sizes across outer blocks
(:func:`knn_join_cost`).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.index.base import SpatialIndex
from repro.index.snapshot import IndexSnapshot
from repro.knn.locality import locality_block_indices


def knn_join_cost(outer: SpatialIndex, inner: SpatialIndex, k: int) -> int:
    """Exact locality-join cost: total inner blocks scanned.

    Args:
        outer: Index of the outer relation ``R``.
        inner: Index of the inner relation ``S``.
        k: Number of neighbors per outer point.

    Returns:
        ``sum over outer blocks of |locality(block, k)|``.
    """
    inner_snapshot = IndexSnapshot.from_index(inner)
    return sum(
        int(locality_block_indices(inner_snapshot, block.rect, k).shape[0])
        for block in outer.blocks
    )


def knn_join(
    outer: SpatialIndex, inner: SpatialIndex, k: int
) -> tuple[Iterator[tuple[np.ndarray, np.ndarray]], "JoinStats"]:
    """Run a locality-based k-NN-Join.

    Args:
        outer: Index of the outer relation ``R``.
        inner: Index of the inner relation ``S``.
        k: Number of neighbors per outer point.

    Returns:
        ``(pairs, stats)``: ``pairs`` lazily yields one
        ``(outer_points, neighbor_arrays)`` tuple per outer block where
        ``neighbor_arrays`` is an ``(n_outer, k_eff, 2)`` array of each
        outer point's nearest inner points in distance order; ``stats``
        accumulates the block-scan cost as the iterator is consumed.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    inner_snapshot = IndexSnapshot.from_index(inner)
    stats = JoinStats()

    def generate() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        for block in outer.blocks:
            locality = locality_block_indices(inner_snapshot, block.rect, k)
            stats.blocks_scanned += int(locality.shape[0])
            stats.outer_blocks_processed += 1
            candidate_arrays = [inner.blocks[i].points for i in locality]
            if candidate_arrays:
                candidates = np.concatenate(candidate_arrays, axis=0)
            else:
                candidates = np.empty((0, 2))
            yield block.points, _batch_knn(block.points, candidates, k)

    return generate(), stats


class JoinStats:
    """Mutable accumulator for join execution statistics."""

    def __init__(self) -> None:
        self.blocks_scanned = 0
        self.outer_blocks_processed = 0

    def __repr__(self) -> str:
        return (
            f"JoinStats(blocks_scanned={self.blocks_scanned}, "
            f"outer_blocks_processed={self.outer_blocks_processed})"
        )


def naive_knn_join(
    outer_points: np.ndarray, inner_points: np.ndarray, k: int
) -> np.ndarray:
    """Brute-force k-NN-Join; correctness oracle for the locality join.

    Args:
        outer_points: ``(n, 2)`` outer point array.
        inner_points: ``(m, 2)`` inner point array.
        k: Number of neighbors per outer point.

    Returns:
        ``(n, min(k, m), 2)`` array of each outer point's nearest inner
        points in distance order.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    outer_points = np.asarray(outer_points, dtype=float).reshape(-1, 2)
    inner_points = np.asarray(inner_points, dtype=float).reshape(-1, 2)
    return _batch_knn(outer_points, inner_points, k)


def _batch_knn(queries: np.ndarray, candidates: np.ndarray, k: int) -> np.ndarray:
    """Vectorized k-NN of every query against a shared candidate set."""
    n = queries.shape[0]
    m = candidates.shape[0]
    k_eff = min(k, m)
    if n == 0 or k_eff == 0:
        return np.empty((n, 0, 2))
    dx = queries[:, 0, None] - candidates[None, :, 0]
    dy = queries[:, 1, None] - candidates[None, :, 1]
    dists = np.hypot(dx, dy)
    if k_eff < m:
        top = np.argpartition(dists, k_eff - 1, axis=1)[:, :k_eff]
    else:
        top = np.broadcast_to(np.arange(m), (n, m)).copy()
    row_dists = np.take_along_axis(dists, top, axis=1)
    order = np.argsort(row_dists, axis=1, kind="stable")
    sorted_idx = np.take_along_axis(top, order, axis=1)
    return candidates[sorted_idx]
