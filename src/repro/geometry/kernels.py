"""Vectorized block-summary kernels: anchors against whole rect arrays.

Every cost model in the paper reduces to the same primitive — rank
blocks by MINDIST/MAXDIST from an anchor and accumulate counts.  These
kernels are that primitive in structure-of-arrays form: each takes an
*anchor* (a point or a rectangle) and an ``(n, 4)`` bounds array (the
``rects`` column of an :class:`~repro.index.snapshot.IndexSnapshot`)
and answers for every block at once.

Each kernel validates shapes and dtypes once, then runs one numpy
ufunc chain.  These kernels are the *only* array definition of
MINDIST/MAXDIST; the scalar forms of :mod:`repro.geometry.metrics`
compute the same float (same per-axis operation order, same libm
``hypot`` through :func:`numpy.hypot` — never CPython's
correctly-rounded :func:`math.hypot`, which can differ by 1 ulp), which
``tests/test_geometry_metrics.py`` asserts with ``==``.  New estimation
code should call these directly on snapshot arrays instead of
materializing per-leaf objects.

Anchor convention
-----------------
An anchor is a 1-D float array (or tuple): length 2 is a point
``(x, y)``; length 4 is a rectangle ``(x_min, y_min, x_max, y_max)``.
The batch variants take ``(m, 2)`` or ``(m, 4)`` anchor stacks and
return ``(m, n)`` matrices whose rows are elementwise identical to the
corresponding single-anchor calls.

Tie-break contract
------------------
Sorting kernels (:func:`mindist_argsort`, :func:`tie_stable_argsort`)
use **stable** sorts only: equal keys keep their input order, so the
result is a pure function of the key values and the input order — no
sort algorithm or physical layout may change it.  Canonical
snapshots are ordered by ascending ``block_ids``, so on a canonical
snapshot equal MINDISTs resolve in block-id order.  A physically
reordered snapshot (e.g. Hilbert layout, see
:meth:`~repro.index.snapshot.IndexSnapshot.with_layout`) passes its
``tie_order`` — the permutation restoring canonical order — and the
sorting kernels then reproduce the canonical tie-break exactly:
``order = tie_order[argsort(values[tie_order], kind="stable")]``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "as_anchor",
    "mindist_rects",
    "maxdist_rects",
    "mindist_rects_batch",
    "maxdist_rects_batch",
    "mindist_argsort",
    "tie_stable_argsort",
    "circle_overlap_mask",
    "rect_overlap_mask",
    "interval_gather",
    "staircase_interpolate",
]


def as_anchor(anchor) -> np.ndarray:
    """Normalize an anchor to a 1-D float array of length 2 or 4.

    Accepts a ``(x, y)`` point, a ``(x_min, y_min, x_max, y_max)``
    bounds tuple/array, or objects exposing the matching attributes
    (:class:`~repro.geometry.point.Point` via ``.x``/``.y``,
    :class:`~repro.geometry.rect.Rect` via ``.as_tuple()``).

    A conforming ndarray — 1-D float64 of length 2 or 4 — is returned
    *as is* (no copy, no new view); the regression test in
    ``tests/test_kernel_backends.py`` asserts the identity.

    Raises:
        ValueError: For any other shape.
    """
    if (
        isinstance(anchor, np.ndarray)
        and anchor.dtype == np.float64
        and anchor.ndim == 1
        and anchor.shape[0] in (2, 4)
    ):
        return anchor  # no-copy fast path: snapshot-derived anchors
    if hasattr(anchor, "as_tuple"):
        anchor = anchor.as_tuple()
    elif hasattr(anchor, "x") and hasattr(anchor, "y"):
        anchor = (anchor.x, anchor.y)
    arr = np.asarray(anchor, dtype=float).reshape(-1)
    if arr.shape[0] not in (2, 4):
        raise ValueError(
            f"anchor must be a point (2,) or rect bounds (4,), got shape {arr.shape}"
        )
    return arr


def _as_rects(rects: np.ndarray) -> np.ndarray:
    if (
        isinstance(rects, np.ndarray)
        and rects.dtype == np.float64
        and rects.ndim == 2
        and rects.shape[1] == 4
    ):
        return rects  # no-copy fast path: snapshot ``rects`` columns
    rects = np.asarray(rects, dtype=float)
    if rects.ndim != 2 or rects.shape[1] != 4:
        raise ValueError(f"expected an (n, 4) bounds array, got shape {rects.shape}")
    return rects


def mindist_rects(anchor, rects: np.ndarray) -> np.ndarray:
    """``(n,)`` MINDIST from one anchor (point or rect) to every rect.

    Zero where the anchor touches/overlaps the rectangle.  Matches
    :func:`repro.geometry.metrics.mindist_point_rect` /
    :func:`~repro.geometry.metrics.mindist_rect_rect` bit for bit.
    """
    a, rects = as_anchor(anchor), _as_rects(rects)
    if a.shape[0] == 2:
        dx = np.maximum(np.maximum(rects[:, 0] - a[0], 0.0), a[0] - rects[:, 2])
        dy = np.maximum(np.maximum(rects[:, 1] - a[1], 0.0), a[1] - rects[:, 3])
    else:
        dx = np.maximum(np.maximum(rects[:, 0] - a[2], 0.0), a[0] - rects[:, 2])
        dy = np.maximum(np.maximum(rects[:, 1] - a[3], 0.0), a[1] - rects[:, 3])
    return np.hypot(dx, dy)


def maxdist_rects(anchor, rects: np.ndarray) -> np.ndarray:
    """``(n,)`` MAXDIST from one anchor (point or rect) to every rect.

    Matches :func:`repro.geometry.metrics.maxdist_point_rect` /
    :func:`~repro.geometry.metrics.maxdist_rect_rect` bit for bit.
    """
    a, rects = as_anchor(anchor), _as_rects(rects)
    if a.shape[0] == 2:
        dx = np.maximum(np.abs(a[0] - rects[:, 0]), np.abs(a[0] - rects[:, 2]))
        dy = np.maximum(np.abs(a[1] - rects[:, 1]), np.abs(a[1] - rects[:, 3]))
        return np.hypot(dx, dy)
    dx = np.maximum(rects[:, 2] - a[0], a[2] - rects[:, 0])
    dy = np.maximum(rects[:, 3] - a[1], a[3] - rects[:, 1])
    return np.hypot(np.maximum(dx, 0.0), np.maximum(dy, 0.0))


def _as_anchor_batch(anchors) -> np.ndarray:
    if (
        isinstance(anchors, np.ndarray)
        and anchors.dtype == np.float64
        and anchors.ndim == 2
        and anchors.shape[1] in (2, 4)
    ):
        return anchors  # no-copy fast path
    arr = np.asarray(anchors, dtype=float)
    if arr.ndim != 2 or arr.shape[1] not in (2, 4):
        raise ValueError(
            f"anchor batch must be (m, 2) or (m, 4), got shape {arr.shape}"
        )
    return arr


def mindist_rects_batch(anchors, rects: np.ndarray) -> np.ndarray:
    """``(m, n)`` MINDIST matrix of many anchors against many rects.

    Row ``i`` is elementwise identical to
    ``mindist_rects(anchors[i], rects)`` — the same FP operation
    sequence — so batching callers stay bit-for-bit compatible with the
    per-anchor path.
    """
    a, rects = _as_anchor_batch(anchors), _as_rects(rects)
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


def maxdist_rects_batch(anchors, rects: np.ndarray) -> np.ndarray:
    """``(m, n)`` MAXDIST matrix of many anchors against many rects."""
    a, rects = _as_anchor_batch(anchors), _as_rects(rects)
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


def mindist_argsort(
    anchor, rects: np.ndarray, *, tie_order: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """MINDIST ordering of all rects with respect to one anchor.

    The inner loop of every estimator: returns ``(order, mindists)``
    where ``order`` is the block permutation sorted by ascending
    MINDIST and ``mindists`` holds the values in that order.

    The sort is pinned ``kind="stable"`` (see the module-level
    *tie-break contract*): on a canonical snapshot equal MINDISTs
    resolve in block-id order.

    Args:
        anchor: Point or rect anchor.
        rects: ``(n, 4)`` bounds array.
        tie_order: Canonical-order permutation of a physically
            reordered snapshot
            (:attr:`~repro.index.snapshot.IndexSnapshot.tie_order`);
            when given, ties resolve exactly as they would on the
            canonical layout — ``order`` then indexes the *physical*
            rows but visits blocks in the canonical tie sequence.
            ``None`` (canonical layout) keeps the plain stable sort.
    """
    mindists = mindist_rects(anchor, rects)
    if tie_order is None:
        order = np.argsort(mindists, kind="stable")
    else:
        order = tie_order[np.argsort(mindists[tie_order], kind="stable")]
    return order, mindists[order]


def tie_stable_argsort(
    values: np.ndarray, tie_order: np.ndarray | None = None
) -> np.ndarray:
    """Row-wise stable argsort of an ``(m, n)`` matrix, tie-corrected.

    The batched sibling of :func:`mindist_argsort`'s ordering step:
    with ``tie_order=None`` this is exactly
    ``np.argsort(values, axis=1, kind="stable")``; with a reordered
    snapshot's ``tie_order`` it reproduces, per row, the order the
    canonical layout would have produced (same blocks at every rank,
    including among equal values).
    """
    if tie_order is None:
        return np.argsort(values, axis=1, kind="stable")
    return tie_order[np.argsort(values[:, tie_order], axis=1, kind="stable")]


def circle_overlap_mask(center, radius: float, rects: np.ndarray) -> np.ndarray:
    """Boolean mask of rects overlapping the open disk ``(center, radius)``.

    A block overlaps the ``D_k`` circle iff its MINDIST from the center
    is strictly below the radius — the Step-5 block count of the
    density-based estimator and the frontier filter of snapshot-seeded
    distance browsing.

    Raises:
        ValueError: If ``radius`` is negative.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return mindist_rects(as_anchor(center)[:2], rects) < radius


def rect_overlap_mask(region, rects: np.ndarray) -> np.ndarray:
    """Boolean mask of rects intersecting the closed ``region``.

    Matches :meth:`repro.geometry.rect.Rect.intersects` per block.
    """
    r = as_anchor(region)
    if r.shape[0] != 4:
        raise ValueError("region must be rect bounds (4,)")
    rects = _as_rects(rects)
    return (
        (rects[:, 0] <= r[2])
        & (r[0] <= rects[:, 2])
        & (rects[:, 1] <= r[3])
        & (r[1] <= rects[:, 3])
    )


def interval_gather(
    k_end: np.ndarray, cost: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """Staircase-range gather of an interval catalog's costs.

    ``out[i] = cost[searchsorted(k_end, ks[i], side="left")]`` — the
    vectorized lookup of
    :meth:`~repro.catalog.intervals.IntervalCatalog.lookup_many`, with
    every ``ks[i]`` pre-validated to lie in ``[1, k_end[-1]]``.
    """
    return cost[k_end.searchsorted(ks, side="left")]


def staircase_interpolate(
    xs: np.ndarray,
    ys: np.ndarray,
    cx,
    cy,
    diagonal,
    c_center: np.ndarray,
    c_corner: np.ndarray,
) -> np.ndarray:
    """Eq. 1–2 interpolation of Staircase estimates, batched over queries.

    ``out[i] = C_center[i] + (2 * dist_i / diagonal[i]) * (C_corner[i] -
    C_center[i])`` with ``dist_i = hypot(xs[i] - cx[i], ys[i] - cy[i])``;
    the cost arrays are the home leaf's catalog lookups at each query's
    own k, ``cx`` / ``cy`` / ``diagonal`` are that leaf's center and
    diagonal — per query, or scalars when the whole batch shares one
    leaf — and a zero-diagonal (degenerate) leaf pins its estimates at
    ``C_center``.  The distance is the C library's ``hypot`` and the
    expression order is exactly this one, which the scalar estimate
    mirrors, so scalar and batched Staircase estimates agree bitwise.
    """
    vectors = (xs, ys, c_center, c_corner)
    xs, ys, c_center, c_corner = [np.asarray(v, dtype=float).reshape(-1) for v in vectors]
    if not (xs.shape == ys.shape == c_center.shape == c_corner.shape):
        raise ValueError(
            "staircase_interpolate arrays must share one length: "
            f"xs {xs.shape}, ys {ys.shape}, "
            f"c_center {c_center.shape}, c_corner {c_corner.shape}"
        )
    try:
        cx, cy, diagonal = [np.asarray(v, dtype=float) for v in (cx, cy, diagonal)]
        cx, cy, diagonal = [
            v if v.shape == xs.shape else np.broadcast_to(v, xs.shape) for v in (cx, cy, diagonal)
        ]
    except ValueError:
        raise ValueError(
            "staircase_interpolate centre and diagonal must be scalars or "
            f"share the batch length {xs.shape}"
        ) from None
    dist = np.hypot(xs - cx, ys - cy)
    delta = c_corner - c_center
    if np.count_nonzero(diagonal) == diagonal.shape[0]:  # no degenerate leaf: no 0 / 0
        return c_center + (2.0 * dist / diagonal) * delta
    with np.errstate(divide="ignore", invalid="ignore"):
        out = c_center + (2.0 * dist / diagonal) * delta
    return np.where(diagonal == 0.0, c_center, out)
