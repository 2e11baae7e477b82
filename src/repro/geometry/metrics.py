"""MINDIST / MAXDIST metrics between points and rectangles.

Following Roussopoulos et al. (cited as [19] in the paper):

* ``MINDIST(p, b)`` — the minimum possible Euclidean distance between a
  point ``p`` and any point inside block ``b``.  Zero when ``p`` lies
  inside ``b``.
* ``MAXDIST(p, b)`` — the maximum possible distance between ``p`` and any
  point inside ``b``; attained at the corner of ``b`` farthest from ``p``.
* The block-to-block versions take the min/max over all point pairs of
  the two blocks.  ``MAXDIST(a, b)`` is attained at a pair of opposite
  corners; ``MINDIST(a, b)`` is zero when the blocks overlap.

Only the scalar forms (one anchor, one rectangle) live here.  The array
forms — the inner loop of every estimator and of the executor — are
:mod:`repro.geometry.kernels`, and the two are *one float*: every
distance below goes through :func:`numpy.hypot` (the C library's
``hypot``, never the ``math`` module's correctly-rounded one, which
differs from it by 1 ulp on ≈ 0.6 % of inputs) after the kernels'
per-axis operation order, so ``mindist_point_rect(p, r) ==
kernels.mindist_rects(p, [r])[0]`` exactly.  That equality is what lets
the strict ``<`` stop test, the ground truth and the catalogs agree on
"scan one more block".
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect


def euclidean(ax: float, ay: float, bx: float, by: float) -> float:
    """Euclidean distance between ``(ax, ay)`` and ``(bx, by)``."""
    return float(np.hypot(ax - bx, ay - by))


# ----------------------------------------------------------------------
# Scalar point <-> rect
# ----------------------------------------------------------------------
def mindist_point_rect(p: Point, r: Rect) -> float:
    """Minimum distance between point ``p`` and rectangle ``r``.

    Zero iff ``p`` lies inside (or on the boundary of) ``r``.
    """
    dx = max(r.x_min - p.x, 0.0, p.x - r.x_max)
    dy = max(r.y_min - p.y, 0.0, p.y - r.y_max)
    return float(np.hypot(dx, dy))


def maxdist_point_rect(p: Point, r: Rect) -> float:
    """Maximum distance between point ``p`` and any point of rectangle ``r``.

    Attained at the corner of ``r`` farthest from ``p``.
    """
    dx = max(abs(p.x - r.x_min), abs(p.x - r.x_max))
    dy = max(abs(p.y - r.y_min), abs(p.y - r.y_max))
    return float(np.hypot(dx, dy))


# ----------------------------------------------------------------------
# Scalar rect <-> rect
# ----------------------------------------------------------------------
def mindist_rect_rect(a: Rect, b: Rect) -> float:
    """Minimum distance between any point of ``a`` and any point of ``b``.

    Zero iff the rectangles intersect.
    """
    dx = max(b.x_min - a.x_max, 0.0, a.x_min - b.x_max)
    dy = max(b.y_min - a.y_max, 0.0, a.y_min - b.y_max)
    return float(np.hypot(dx, dy))


def maxdist_rect_rect(a: Rect, b: Rect) -> float:
    """Maximum distance between any point of ``a`` and any point of ``b``."""
    dx = max(b.x_max - a.x_min, a.x_max - b.x_min)
    dy = max(b.y_max - a.y_min, a.y_max - b.y_min)
    # When one rectangle is degenerate and nested, per-axis spreads are
    # still non-negative because max(u, -u) >= 0 for the two symmetric
    # differences above; guard anyway for numerical safety.
    return float(np.hypot(max(dx, 0.0), max(dy, 0.0)))


# ----------------------------------------------------------------------
# Circle containment (used by the density-based estimator)
# ----------------------------------------------------------------------
def circle_inside_rect(center: Point, radius: float, r: Rect) -> bool:
    """Whether the disk ``(center, radius)`` lies entirely inside ``r``."""
    if radius < 0:
        raise ValueError("radius must be non-negative")
    return (
        center.x - radius >= r.x_min
        and center.x + radius <= r.x_max
        and center.y - radius >= r.y_min
        and center.y + radius <= r.y_max
    )


def circle_inside_union(center: Point, radius: float, rects: Sequence[Rect]) -> bool:
    """Whether the disk lies entirely inside the union of ``rects``.

    The density-based algorithm terminates once its D_k circle is fully
    contained within the bounds of the examined blocks.  Exact disk-in-
    union containment is awkward; for axis-aligned partitions the disk
    is inside the union iff every block *not* examined is farther than
    ``radius`` — that complement test is what the estimator actually
    uses.  This helper implements a sufficient (conservative) direct
    test: the disk is inside the union if it is inside the bounding box
    of the union and every boundary sample at 16 angles falls inside
    some rectangle.  It exists for validation and tests rather than the
    hot path.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if not rects:
        return False
    for i in range(16):
        angle = 2.0 * math.pi * i / 16.0
        sample = Point(center.x + radius * math.cos(angle), center.y + radius * math.sin(angle))
        if not any(r.contains_point(sample) for r in rects):
            return False
    return any(r.contains_point(center) for r in rects)
