"""Reference numpy kernel backend.

The ufunc chains here define the bit pattern of the whole kernel
surface: every other backend must reproduce these outputs exactly
(``tests/test_kernel_backends.py`` asserts it elementwise).  Inputs are
pre-validated by the dispatch layer (:mod:`repro.geometry.kernels`):
rects are ``(n, 4)`` float64, anchors are ``(2,)``/``(4,)`` float64 (or
``(m, 2)``/``(m, 4)`` stacks for the batch kernels), so the functions
here do raw array math only.

All distances go through :func:`numpy.hypot` — the C library's
``hypot`` — which is also what the numba backend's ``math.hypot``
lowers to.  (CPython's *interpreted* ``math.hypot`` is a different,
correctly-rounded algorithm that can differ from libm by 1 ulp; no
kernel may use it.)
"""

from __future__ import annotations

import numpy as np

name = "numpy"


def mindist_rects(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """``(n,)`` MINDIST from one validated anchor to every rect."""
    if a.shape[0] == 2:
        dx = np.maximum(np.maximum(rects[:, 0] - a[0], 0.0), a[0] - rects[:, 2])
        dy = np.maximum(np.maximum(rects[:, 1] - a[1], 0.0), a[1] - rects[:, 3])
    else:
        dx = np.maximum(np.maximum(rects[:, 0] - a[2], 0.0), a[0] - rects[:, 2])
        dy = np.maximum(np.maximum(rects[:, 1] - a[3], 0.0), a[1] - rects[:, 3])
    return np.hypot(dx, dy)


def maxdist_rects(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """``(n,)`` MAXDIST from one validated anchor to every rect."""
    if a.shape[0] == 2:
        dx = np.maximum(np.abs(a[0] - rects[:, 0]), np.abs(a[0] - rects[:, 2]))
        dy = np.maximum(np.abs(a[1] - rects[:, 1]), np.abs(a[1] - rects[:, 3]))
        return np.hypot(dx, dy)
    dx = np.maximum(rects[:, 2] - a[0], a[2] - rects[:, 0])
    dy = np.maximum(rects[:, 3] - a[1], a[3] - rects[:, 1])
    return np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))


def mindist_rects_batch(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """``(m, n)`` MINDIST matrix of a validated anchor stack."""
    if a.shape[1] == 2:
        x = a[:, 0][:, None]
        y = a[:, 1][:, None]
        dx = np.maximum(np.maximum(rects[None, :, 0] - x, 0.0), x - rects[None, :, 2])
        dy = np.maximum(np.maximum(rects[None, :, 1] - y, 0.0), y - rects[None, :, 3])
    else:
        dx = np.maximum(
            np.maximum(rects[None, :, 0] - a[:, 2][:, None], 0.0),
            a[:, 0][:, None] - rects[None, :, 2],
        )
        dy = np.maximum(
            np.maximum(rects[None, :, 1] - a[:, 3][:, None], 0.0),
            a[:, 1][:, None] - rects[None, :, 3],
        )
    return np.hypot(dx, dy)


def maxdist_rects_batch(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """``(m, n)`` MAXDIST matrix of a validated anchor stack."""
    if a.shape[1] == 2:
        x = a[:, 0][:, None]
        y = a[:, 1][:, None]
        dx = np.maximum(np.abs(x - rects[None, :, 0]), np.abs(x - rects[None, :, 2]))
        dy = np.maximum(np.abs(y - rects[None, :, 1]), np.abs(y - rects[None, :, 3]))
        return np.hypot(dx, dy)
    dx = np.maximum(
        rects[None, :, 2] - a[:, 0][:, None], a[:, 2][:, None] - rects[None, :, 0]
    )
    dy = np.maximum(
        rects[None, :, 3] - a[:, 1][:, None], a[:, 3][:, None] - rects[None, :, 1]
    )
    return np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))


def rect_overlap_mask(r: np.ndarray, rects: np.ndarray) -> np.ndarray:
    """Boolean mask of rects intersecting the closed region ``r``."""
    return (
        (rects[:, 0] <= r[2])
        & (r[0] <= rects[:, 2])
        & (rects[:, 1] <= r[3])
        & (r[1] <= rects[:, 3])
    )


def interval_gather(
    k_end: np.ndarray, cost: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """Staircase-range gather: ``cost`` of the range containing each k.

    ``k_end`` is the sorted array of range upper bounds of an
    :class:`~repro.catalog.intervals.IntervalCatalog`; each ``ks[i]``
    is already validated to lie in ``[1, k_end[-1]]``.
    """
    return cost[k_end.searchsorted(ks, side="left")]


def staircase_interpolate(
    xs: np.ndarray,
    ys: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    diagonal: np.ndarray,
    c_center: np.ndarray,
    c_corner: np.ndarray,
) -> np.ndarray:
    """Eq. 1–2 of the paper: center/corner interpolation per query.

    ``out[i] = C_center[i] + (2 * dist_i / diagonal[i]) * (C_corner[i] -
    C_center[i])`` with ``dist_i`` the distance from query ``i`` to its
    home leaf's center ``(cx[i], cy[i])`` (the cost arrays are the
    per-query catalog lookups at each query's own k).  A degenerate
    (zero-diagonal) leaf pins its estimates at ``C_center``.  The
    expression order is part of the backend contract — every backend
    must apply exactly this FP operation sequence.
    """
    dist = np.hypot(xs - cx, ys - cy)
    delta = c_corner - c_center
    if np.count_nonzero(diagonal) == diagonal.shape[0]:  # no degenerate leaf: no 0 / 0
        return c_center + (2.0 * dist / diagonal) * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c_center + (2.0 * dist / diagonal) * delta
    return np.where(diagonal == 0.0, c_center, out)
