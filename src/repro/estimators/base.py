"""Shared estimator interfaces.

Every estimator reports the three quantities the paper's evaluation
trades off besides accuracy: estimation time (measured externally by
the benchmarks), preprocessing time (:attr:`preprocessing_seconds`,
recorded during construction), and storage overhead
(:meth:`storage_bytes`).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.geometry import Point


def normalize_batch_args(queries, ks) -> tuple[np.ndarray, np.ndarray]:
    """Canonicalize ``estimate_batch`` inputs to dense arrays.

    Args:
        queries: ``(m, 2)`` array-like of query coordinates.
        ks: ``(m,)`` array-like of per-query k values, or a scalar
            broadcast to every query.

    Returns:
        ``(points, ks)`` as a float64 ``(m, 2)`` array and an int64
        ``(m,)`` array — the arguments themselves when they already are.

    Raises:
        ValueError: If the lengths disagree.
        InvalidQueryError: If ``ks`` is not integer-typed (mirrors the
            scalar path, where ``require_valid_k`` rejects non-integral
            k values), or if a k exceeds ``2**63 - 1`` (named as the
            caller gave it, at the first offender).
    """
    if type(queries) is type(ks) is np.ndarray and queries.shape[1:] == (2,):
        if (queries.dtype, ks.dtype, ks.shape) == (np.float64, np.int64, queries.shape[:1]):
            return queries, ks
    # Deferred import: resilience.fallback subclasses this module's
    # ABCs, so a module-level import would be circular.
    from repro.resilience.errors import InvalidQueryError
    from repro.resilience.guards import (
        K_CEILING,
        require_finite_coordinates,
        require_valid_k,
    )

    pts = np.asarray(queries, dtype=float).reshape(-1, 2)
    if isinstance(ks, np.ndarray):
        given = ks.reshape(-1).tolist() if ks.dtype.kind in "uO" else []
    else:
        given = list(ks) if isinstance(ks, (list, tuple)) else [ks]
    if any(type(k) is int and k > K_CEILING for k in given):
        # numpy would wrap, round or refuse a k past int64: reject the
        # caller's k where a scalar loop would, coordinates first.
        if len(given) == 1:
            given *= len(pts)
        for (x, y), k in zip(pts.tolist(), given):
            require_finite_coordinates(x, y)
            require_valid_k(k)
    raw_ks = np.asarray(ks)
    if raw_ks.dtype == np.bool_ or not np.issubdtype(raw_ks.dtype, np.integer):
        raise InvalidQueryError(
            f"k values must be integers, got dtype {raw_ks.dtype}"
        )
    ks_arr = raw_ks.astype(np.int64, copy=False)
    if ks_arr.ndim == 0:
        ks_arr = np.full(pts.shape[0], int(ks_arr), dtype=np.int64)
    else:
        ks_arr = ks_arr.reshape(-1)
    if ks_arr.shape[0] != pts.shape[0]:
        raise ValueError(
            f"batch length mismatch: {pts.shape[0]} queries vs "
            f"{ks_arr.shape[0]} k values"
        )
    return pts, ks_arr


class SelectCostEstimator(abc.ABC):
    """Estimates the block-scan cost of a k-NN-Select ``σ_kNN,q(R)``."""

    #: Wall-clock seconds spent building catalogs (0 when none are built).
    preprocessing_seconds: float = 0.0

    @abc.abstractmethod
    def estimate(self, query: Point, k: int) -> float:
        """Estimate the number of blocks scanned for ``σ_kNN,query``.

        Args:
            query: The query focal point.
            k: Number of neighbors requested.

        Returns:
            The estimated block-scan cost (possibly fractional).
        """

    def estimate_batch(self, queries, ks) -> np.ndarray:
        """Vectorized :meth:`estimate` over a batch of queries.

        The contract is strict equivalence: element ``i`` of the result
        is exactly ``estimate(Point(*queries[i]), ks[i])`` — same float,
        same exceptions.  The base implementation is that loop;
        subclasses override it with vectorized paths that preserve the
        bit-identity.

        Args:
            queries: ``(m, 2)`` array-like of query coordinates.
            ks: ``(m,)`` per-query k values, or a scalar applied to all.

        Returns:
            ``(m,)`` float64 array of estimated block-scan costs.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        out = np.empty(pts.shape[0], dtype=float)
        for i in range(pts.shape[0]):
            out[i] = self.estimate(Point(pts[i, 0], pts[i, 1]), int(ks_arr[i]))
        return out

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Bytes of catalog/statistics state the estimator maintains."""


class JoinCostEstimator(abc.ABC):
    """Estimates the block-scan cost of a k-NN-Join ``R ⋉_kNN S``.

    Instances are bound to one (outer, inner) relation pair; the
    Virtual-Grid technique binds lazily via
    :meth:`~repro.estimators.virtual_grid.VirtualGridEstimator.for_outer`.
    """

    #: Wall-clock seconds spent building catalogs (0 when none are built).
    preprocessing_seconds: float = 0.0

    @abc.abstractmethod
    def estimate(self, k: int) -> float:
        """Estimate the total number of inner blocks scanned by the join.

        Args:
            k: Number of neighbors per outer point.

        Returns:
            The estimated total block-scan cost (possibly fractional).
        """

    @abc.abstractmethod
    def storage_bytes(self) -> int:
        """Bytes of catalog state the estimator maintains."""


def validate_k(k: int) -> None:
    """Common argument check shared by all estimators.

    Raises:
        InvalidQueryError: (a ``ValueError``) if ``k`` is not a positive
            integer.
    """
    # Imported here, not at module level: resilience.fallback subclasses
    # this module's ABCs, so a module-level import would be circular.
    from repro.resilience.guards import require_valid_k

    require_valid_k(k)
