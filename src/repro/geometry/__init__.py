"""Geometric substrate: points, rectangles, and spatial distance metrics.

The paper's techniques are defined over two-dimensional Euclidean space
and make extensive use of the MINDIST and MAXDIST metrics between points
and blocks (rectangles) and between pairs of blocks.  This subpackage
provides those primitives: scalar forms in :mod:`~repro.geometry.metrics`
and, as the only array definition, the columnar kernels of
:mod:`~repro.geometry.kernels` over ``(n, 4)`` bounds matrices (the
:class:`~repro.index.snapshot.IndexSnapshot` layout).  Both compute the
same float; they are re-exported here side by side.
"""

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.metrics import (
    euclidean,
    mindist_point_rect,
    maxdist_point_rect,
    mindist_rect_rect,
    maxdist_rect_rect,
    circle_inside_rect,
    circle_inside_union,
)
from repro.geometry.kernels import (
    as_anchor,
    circle_overlap_mask,
    maxdist_rects,
    maxdist_rects_batch,
    mindist_argsort,
    mindist_rects,
    mindist_rects_batch,
    rect_overlap_mask,
)

__all__ = [
    "Point",
    "Rect",
    "euclidean",
    "mindist_point_rect",
    "maxdist_point_rect",
    "mindist_rect_rect",
    "maxdist_rect_rect",
    "circle_inside_rect",
    "circle_inside_union",
    "as_anchor",
    "circle_overlap_mask",
    "maxdist_rects",
    "maxdist_rects_batch",
    "mindist_argsort",
    "mindist_rects",
    "mindist_rects_batch",
    "rect_overlap_mask",
]
