"""Closed-form k-NN-Select cost model for uniform data.

The precursors of the paper's baseline ([8] Berchtold et al., [9] Böhm,
and the uniform case of [24] Tao et al.) estimate k-NN cost *analytically*
under a global uniformity assumption: with ``n`` points uniform over a
region of area ``A``,

    D_k = sqrt(k * A / (pi * n))

and the expected number of scanned blocks is the number of blocks whose
region intersects the D_k disk around the query point.  With uniformly
shaped blocks of area ``a`` this is approximately

    cost ≈ (D_k + d/2)^2 * pi / a

where ``d`` is the typical block diameter — a Minkowski-sum argument:
the disk grown by half a block diameter covers the centers of all
intersected blocks.

This model needs *no statistics at all* beyond four scalars, which
makes it the zero-storage extreme of the design space: exact on uniform
data, arbitrarily wrong on clustered data.  It serves as the analytic
sanity baseline in the ablation benchmarks.
"""

from __future__ import annotations

import math

import numpy as np

from repro.estimators.base import (
    SelectCostEstimator,
    normalize_batch_args,
    validate_k,
)
from repro.geometry import Point
from repro.index.snapshot import as_snapshot
from repro.resilience.guards import require_valid_ks


class UniformModelEstimator(SelectCostEstimator):
    """Analytic uniform-data k-NN-Select cost model.

    Args:
        snapshot: Block summary (snapshot, or an index to gather one
            from), used only to extract the four summary scalars (point count,
            total area, block count, mean block diagonal).

    Raises:
        ValueError: On an empty index.
    """

    def __init__(self, snapshot) -> None:
        # Canonical row order keeps the area-sum / diagonal-mean
        # accumulation order (and hence the bits) layout-independent.
        snap = as_snapshot(snapshot).canonical()
        if snap.n_blocks == 0:
            raise ValueError("cannot model an empty index")
        self._n_points = snap.total_count
        self._n_blocks = snap.n_blocks
        self._total_area = float(snap.areas.sum())
        self._mean_diagonal = float(snap.diagonals.mean())
        if self._total_area <= 0:
            raise ValueError("the uniform model needs blocks with positive area")

    def estimate(self, query: Point, k: int) -> float:
        """Estimate the scan cost; independent of the query location.

        The location-independence *is* the model: uniformity makes every
        focal point equivalent.
        """
        validate_k(k)
        d_k = self.estimate_dk(k)
        block_area = self._total_area / self._n_blocks
        reach = d_k + self._mean_diagonal / 2.0
        cost = math.pi * reach * reach / block_area
        return float(min(max(cost, 1.0), self._n_blocks))

    def estimate_batch(self, queries, ks) -> np.ndarray:
        """Closed-form vectorized :meth:`estimate`.

        The model is location-independent, so the batch collapses to
        one ufunc chain over the k column.  The operation order mirrors
        the scalar path exactly (division, ``sqrt``, the Minkowski
        reach, the clamp) and both ``sqrt`` implementations are
        correctly rounded, so every element is bit-identical to the
        scalar call.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        require_valid_ks(ks_arr)
        if pts.shape[0] == 0:
            return np.empty(0, dtype=float)
        density = self._n_points / self._total_area
        if density == 0.0:
            # The scalar path divides by zero in estimate_dk.
            raise ZeroDivisionError("float division by zero")
        d_k = np.sqrt(ks_arr / (math.pi * density))
        block_area = self._total_area / self._n_blocks
        reach = d_k + self._mean_diagonal / 2.0
        cost = math.pi * reach * reach / block_area
        return np.minimum(np.maximum(cost, 1.0), float(self._n_blocks))

    def estimate_dk(self, k: int) -> float:
        """Closed-form D_k under global uniformity."""
        validate_k(k)
        density = self._n_points / self._total_area
        return math.sqrt(k / (math.pi * density))

    def storage_bytes(self) -> int:
        """Four scalars."""
        return 4 * 8
