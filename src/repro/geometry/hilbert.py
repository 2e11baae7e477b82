"""Hilbert-curve ordering of block centers (cache-aware snapshot layout).

The distance-browsing frontier and the batched estimators walk snapshot
rows in roughly *spatial* order — blocks near the query anchor first.
When the physical row order matches spatial proximity, those walks
touch near-contiguous memory; when it is index-traversal order (the
canonical layout), they stride.  :func:`hilbert_order` computes the
permutation that sorts block centers along a Hilbert space-filling
curve — the classic locality-preserving order (every curve step moves
to a spatially adjacent cell) — which
:meth:`~repro.index.snapshot.IndexSnapshot.with_layout` applies
physically.

The ordering is a pure layout concern: consumers recover canonical
tie-break semantics through the snapshot's
:attr:`~repro.index.snapshot.IndexSnapshot.tie_order`, so results stay
bit-identical whatever the physical order (the layout-invariance tests
of ``tests/test_kernel_backends.py``).
"""

from __future__ import annotations

import numpy as np

from repro.geometry.kernels import as_anchor

#: Grid resolution (bits per axis) for center quantization.  16 bits =
#: a 65536² grid; distinct centers collide only below ~1/65536 of the
#: universe extent, and collisions just fall back to the stable sort's
#: input-order tie-break.
HILBERT_BITS = 16


def hilbert_d(x: np.ndarray, y: np.ndarray, bits: int = HILBERT_BITS) -> np.ndarray:
    """Vectorized xy→d Hilbert-curve index on a ``2**bits`` grid.

    The iterative quadrant-rotation algorithm, applied to whole uint64
    arrays at once.

    Args:
        x: ``(n,)`` integer cell columns in ``[0, 2**bits)``.
        y: ``(n,)`` integer cell rows in ``[0, 2**bits)``.
        bits: Grid resolution per axis (≤ 31 so ``d`` fits in uint64).

    Returns:
        ``(n,)`` uint64 curve positions.
    """
    x = np.asarray(x, dtype=np.uint64).copy()
    y = np.asarray(y, dtype=np.uint64).copy()
    d = np.zeros(x.shape[0], dtype=np.uint64)
    one = np.uint64(1)
    s = np.uint64(1) << np.uint64(bits - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.uint64)
        ry = ((y & s) > 0).astype(np.uint64)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # Rotate the quadrant: where ry == 0, (flip when rx == 1, then
        # swap x and y) — the standard Hilbert state transition.
        lower = ry == 0
        flip = lower & (rx == 1)
        x_f = np.where(flip, (s - one) - x, x)
        y_f = np.where(flip, (s - one) - y, y)
        x, y = (
            np.where(lower, y_f, x_f),
            np.where(lower, x_f, y_f),
        )
        s >>= one
    return d


def hilbert_order(
    centers: np.ndarray, bounds=None, bits: int = HILBERT_BITS
) -> np.ndarray:
    """Permutation sorting points along the Hilbert curve.

    Args:
        centers: ``(n, 2)`` point coordinates (snapshot block centers).
        bounds: Universe to quantize against — anything
            :func:`~repro.geometry.kernels.as_anchor` accepts as a
            rect.  Defaults to the centers' bounding box.
        bits: Grid resolution per axis.

    Returns:
        ``(n,)`` int64 permutation (stable: quantization collisions
        keep their input order), suitable for
        :meth:`~repro.index.snapshot.IndexSnapshot.with_layout`.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2)
    n = centers.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if bounds is None:
        lo_x, lo_y = centers[:, 0].min(), centers[:, 1].min()
        hi_x, hi_y = centers[:, 0].max(), centers[:, 1].max()
    else:
        b = as_anchor(bounds)
        if b.shape[0] != 4:
            raise ValueError("bounds must be rect bounds (4,)")
        lo_x, lo_y, hi_x, hi_y = b
    side = np.float64((1 << bits) - 1)
    span_x = hi_x - lo_x
    span_y = hi_y - lo_y
    gx = np.zeros(n, dtype=np.uint64)
    gy = np.zeros(n, dtype=np.uint64)
    if span_x > 0:
        gx = np.clip((centers[:, 0] - lo_x) / span_x * side, 0.0, side).astype(
            np.uint64
        )
    if span_y > 0:
        gy = np.clip((centers[:, 1] - lo_y) / span_y * side, 0.0, side).astype(
            np.uint64
        )
    d = hilbert_d(gx, gy, bits)
    return np.argsort(d, kind="stable").astype(np.int64)
