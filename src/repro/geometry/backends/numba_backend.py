"""Numba-compiled kernel backend (optional).

Importing this module requires :mod:`numba`; the registry catches the
``ImportError`` and leaves only the numpy reference registered.  Every
kernel is an ``@njit``-compiled loop applying exactly the FP operation
sequence of :mod:`repro.geometry.backends.numpy_backend` — ``max``
chains and ``math.hypot``, which numba lowers to the same C library
``hypot`` that :func:`numpy.hypot` wraps — so outputs are bitwise
identical to the reference (``tests/test_kernel_backends.py`` asserts
it).  ``fastmath`` stays off: it would license reassociation and break
the bit-parity gate.

Compilation is lazy (first call) and cached on disk (``cache=True``) so
repeated processes — CI legs, shard workers — pay the JIT once.
"""

from __future__ import annotations

import math

import numpy as np
from numba import njit

name = "numba"


@njit(cache=True)
def _mindist_point(rects, x, y):
    n = rects.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        dx = max(max(rects[i, 0] - x, 0.0), x - rects[i, 2])
        dy = max(max(rects[i, 1] - y, 0.0), y - rects[i, 3])
        out[i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _mindist_rect(rects, x0, y0, x1, y1):
    n = rects.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        dx = max(max(rects[i, 0] - x1, 0.0), x0 - rects[i, 2])
        dy = max(max(rects[i, 1] - y1, 0.0), y0 - rects[i, 3])
        out[i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _maxdist_point(rects, x, y):
    n = rects.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        dx = max(abs(x - rects[i, 0]), abs(x - rects[i, 2]))
        dy = max(abs(y - rects[i, 1]), abs(y - rects[i, 3]))
        out[i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _maxdist_rect(rects, x0, y0, x1, y1):
    n = rects.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        dx = max(rects[i, 2] - x0, x1 - rects[i, 0])
        dy = max(rects[i, 3] - y0, y1 - rects[i, 1])
        out[i] = math.hypot(max(dx, 0.0), max(dy, 0.0))
    return out


def mindist_rects(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if a.shape[0] == 2:
        return _mindist_point(rects, a[0], a[1])
    return _mindist_rect(rects, a[0], a[1], a[2], a[3])


def maxdist_rects(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if a.shape[0] == 2:
        return _maxdist_point(rects, a[0], a[1])
    return _maxdist_rect(rects, a[0], a[1], a[2], a[3])


@njit(cache=True)
def _mindist_point_batch(rects, xs, ys):
    m = xs.shape[0]
    n = rects.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    for j in range(m):
        x = xs[j]
        y = ys[j]
        for i in range(n):
            dx = max(max(rects[i, 0] - x, 0.0), x - rects[i, 2])
            dy = max(max(rects[i, 1] - y, 0.0), y - rects[i, 3])
            out[j, i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _mindist_rect_batch(rects, a):
    m = a.shape[0]
    n = rects.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    for j in range(m):
        for i in range(n):
            dx = max(max(rects[i, 0] - a[j, 2], 0.0), a[j, 0] - rects[i, 2])
            dy = max(max(rects[i, 1] - a[j, 3], 0.0), a[j, 1] - rects[i, 3])
            out[j, i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _maxdist_point_batch(rects, xs, ys):
    m = xs.shape[0]
    n = rects.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    for j in range(m):
        x = xs[j]
        y = ys[j]
        for i in range(n):
            dx = max(abs(x - rects[i, 0]), abs(x - rects[i, 2]))
            dy = max(abs(y - rects[i, 1]), abs(y - rects[i, 3]))
            out[j, i] = math.hypot(dx, dy)
    return out


@njit(cache=True)
def _maxdist_rect_batch(rects, a):
    m = a.shape[0]
    n = rects.shape[0]
    out = np.empty((m, n), dtype=np.float64)
    for j in range(m):
        for i in range(n):
            dx = max(rects[i, 2] - a[j, 0], a[j, 2] - rects[i, 0])
            dy = max(rects[i, 3] - a[j, 1], a[j, 3] - rects[i, 1])
            out[j, i] = math.hypot(max(dx, 0.0), max(dy, 0.0))
    return out


def mindist_rects_batch(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if a.shape[1] == 2:
        return _mindist_point_batch(
            rects, np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1])
        )
    return _mindist_rect_batch(rects, a)


def maxdist_rects_batch(a: np.ndarray, rects: np.ndarray) -> np.ndarray:
    if a.shape[1] == 2:
        return _maxdist_point_batch(
            rects, np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1])
        )
    return _maxdist_rect_batch(rects, a)


@njit(cache=True)
def _rect_overlap_mask(r0, r1, r2, r3, rects):
    n = rects.shape[0]
    out = np.empty(n, dtype=np.bool_)
    for i in range(n):
        out[i] = (
            rects[i, 0] <= r2
            and r0 <= rects[i, 2]
            and rects[i, 1] <= r3
            and r1 <= rects[i, 3]
        )
    return out


def rect_overlap_mask(r: np.ndarray, rects: np.ndarray) -> np.ndarray:
    return _rect_overlap_mask(r[0], r[1], r[2], r[3], rects)


@njit(cache=True)
def _interval_gather(k_end, cost, ks):
    m = ks.shape[0]
    out = np.empty(m, dtype=np.float64)
    n = k_end.shape[0]
    for i in range(m):
        k = ks[i]
        lo = 0
        hi = n
        # bisect-left on k_end: first range whose upper bound reaches k
        # (identical to np.searchsorted(k_end, k, side="left")).
        while lo < hi:
            mid = (lo + hi) // 2
            if k_end[mid] < k:
                lo = mid + 1
            else:
                hi = mid
        out[i] = cost[lo]
    return out


def interval_gather(
    k_end: np.ndarray, cost: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    return _interval_gather(k_end, cost, ks)


@njit(cache=True)
def _staircase_interpolate(xs, ys, cx, cy, diagonal, c_center, c_corner):
    m = xs.shape[0]
    out = np.empty(m, dtype=np.float64)
    for i in range(m):
        if diagonal[i] == 0.0:
            out[i] = c_center[i]
            continue
        dist = math.hypot(xs[i] - cx[i], ys[i] - cy[i])
        delta = c_corner[i] - c_center[i]
        out[i] = c_center[i] + (2.0 * dist / diagonal[i]) * delta
    return out


def staircase_interpolate(
    xs: np.ndarray,
    ys: np.ndarray,
    cx: np.ndarray,
    cy: np.ndarray,
    diagonal: np.ndarray,
    c_center: np.ndarray,
    c_corner: np.ndarray,
) -> np.ndarray:
    return _staircase_interpolate(
        *(
            np.ascontiguousarray(v)
            for v in (xs, ys, cx, cy, diagonal, c_center, c_corner)
        )
    )
