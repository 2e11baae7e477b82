"""The Block-Sample k-NN-Join cost estimator (Section 4.1).

The baseline join estimator: at *query* time, compute the locality size
of a spatially-distributed sample of ``s`` outer blocks and scale the
aggregate by ``n_o / s``.  No preprocessing, no storage — but every
estimate pays ``s`` locality computations, which is why Figure 17 shows
it four orders of magnitude slower than Catalog-Merge.

The sample is "chosen to be spatially distributed across the space" by
walking the outer index's blocks in traversal order and keeping every
``n_o / s``-th block, exactly as the paper prescribes (a quadtree's
depth-first leaf order is a space-filling order, so a stride through it
spreads the sample spatially).

Every :meth:`~BlockSampleEstimator.estimate` computes the ``s`` sampled
localities with :func:`~repro.knn.locality.locality_sizes` — the paper's
query-time sampling.  The estimator holds only the sampled outer rects
and the inner :class:`~repro.index.snapshot.IndexSnapshot`.
"""

from __future__ import annotations

import numpy as np

from repro.estimators.base import JoinCostEstimator, validate_k
from repro.index.snapshot import as_snapshot
from repro.knn.locality import locality_sizes


def sample_block_indices(n_blocks: int, sample_size: int) -> np.ndarray:
    """Pick a spatially-distributed sample by striding the traversal order.

    Args:
        n_blocks: Number of outer blocks (traversal order positions).
        sample_size: Requested sample size ``s``.

    Returns:
        Sorted unique block positions; all blocks when
        ``sample_size >= n_blocks``.

    Raises:
        ValueError: If ``sample_size < 1`` or there are no blocks.
    """
    if sample_size < 1:
        raise ValueError(f"sample_size must be >= 1, got {sample_size}")
    if n_blocks < 1:
        raise ValueError("cannot sample from an empty outer relation")
    if sample_size >= n_blocks:
        return np.arange(n_blocks, dtype=np.int64)
    # Evenly spaced stride through the traversal order ("skip blocks
    # every n_o / s").  linspace guarantees exactly `sample_size` picks
    # even when n_blocks is not a multiple of the stride.
    positions = np.linspace(0, n_blocks - 1, num=sample_size)
    return np.unique(np.round(positions).astype(np.int64))


class BlockSampleEstimator(JoinCostEstimator):
    """Block-Sample join-cost estimation for one (outer, inner) pair.

    Args:
        outer: Block summary of the outer relation (supplies blocks to
            sample) — an index or snapshot.
        inner: Block summary of the inner relation.
        sample_size: Number of outer blocks whose locality is computed
            per estimate.
    """

    def __init__(
        self,
        outer,
        inner,
        sample_size: int = 400,
    ) -> None:
        inner_snap = as_snapshot(inner)
        if inner_snap.n_blocks == 0:
            raise ValueError("cannot estimate joins against an empty inner relation")
        # Canonical row order: the sample indexes outer rows positionally.
        outer_snap = as_snapshot(outer).canonical()
        self._n_outer = outer_snap.n_blocks
        if self._n_outer == 0:
            raise ValueError("cannot estimate joins over an empty outer relation")
        self._inner = inner_snap
        self._sampled = outer_snap.rects[sample_block_indices(self._n_outer, sample_size)]

    def estimate(self, k: int) -> float:
        """Estimate the join cost by sampling localities at query time."""
        validate_k(k)
        aggregate = int(locality_sizes(self._inner, self._sampled, k).sum())
        return aggregate * (self._n_outer / self._sampled.shape[0])

    @property
    def sample_size(self) -> int:
        """Actual number of sampled outer blocks."""
        return int(self._sampled.shape[0])

    def storage_bytes(self) -> int:
        """No catalogs: storage overhead is zero (Figure 24)."""
        return 0
