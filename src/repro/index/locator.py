"""The home-block locator: point → containing rect through a bucket grid.

Every Staircase estimate starts by finding the one block (auxiliary
leaf) that contains the query point.  Testing the point against *all*
``n`` rects is exact but costs O(n) per point for a question whose
answer touches one rect.  :class:`BlockLocator` files every rect, once,
under each cell of a bucket grid it reaches, and answers a point by
running the very same containment rule over its cell's bucket only.

Exactness needs one property, and nothing about the rects: the cell
function ``cell(v) = searchsorted(edges, v, "right") - 1`` (clipped to
the grid) is **monotone** in ``v``.  A rect that contains a point has
``min <= v`` and ``v <= max`` on both axes, hence ``cell(min) <=
cell(v) <= cell(max)``, hence it was filed under the point's cell.
That holds for disjoint quadtree / grid leaves and for overlapping
R-tree MBRs alike, for zero-area rects and for rects reaching past the
universe, so there is no substrate-specific fallback; and because the
cells are defined by explicit edge *arrays* (not by an arithmetic
``floor((v - x0) / w)``), filing and lookup agree on every float — and
the edges are free to sit where the rects are (see
:class:`BlockLocator`), which keeps buckets short under skew.
"""

from __future__ import annotations

import copy
import math
from array import array
from bisect import bisect_right

import numpy as np


#: Batches up to this size go through :meth:`BlockLocator.home_of` point
#: by point, below the array pass's fixed cost of some twenty numpy calls.
_SMALL_BATCH = 16


def _axis_edges(minima: np.ndarray, lo: float, hi: float, per_axis: int) -> np.ndarray:
    """Sorted cell edges of one axis: ``lo``, ``hi`` and inner cuts.

    The cuts are at most ``per_axis - 1`` evenly ranked values of the
    rects' distinct minima strictly inside ``(lo, hi)``.
    """
    cuts = np.unique(minima)
    cuts = cuts[(cuts > lo) & (cuts < hi)]
    if cuts.shape[0] > per_axis - 1:
        ranks = np.linspace(0, cuts.shape[0] - 1, per_axis - 1).astype(np.int64)
        cuts = cuts[ranks]
    return np.concatenate([[lo], cuts, [hi]])


def _cells(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The monotone cell function of one axis, clipped to the grid."""
    return np.clip(
        np.searchsorted(edges, values, side="right") - 1, 0, edges.shape[0] - 2
    )


class BlockLocator:
    """Bucket grid over ``rects`` answering "which rect contains p?".

    The containment rule is the partition rule of
    :meth:`repro.index.quadtree.Quadtree.leaf_for`: half-open
    ``[min, max)`` per axis, closed at the universe's east / north
    edge, first hit in row order when rects overlap, ``-1`` for a point
    outside the universe or inside it but in no rect.

    Args:
        rects: ``(n, 4)`` bounds ``(x_min, y_min, x_max, y_max)`` in the
            row order that breaks ties.
        bounds: The universe ``(x_min, y_min, x_max, y_max)``.

    The grid has up to ``ceil(sqrt(2 n))`` cells per axis — about two
    cells per rect — and its edges are order statistics of the rects'
    own distinct minima, so cells are fine where rects are small and a
    point's bucket stays about a dozen candidates however many rects
    there are and however skewed they lie (equal-width cells measured
    32 candidates per data-distributed point at 3,079 OSM-like leaves
    and 64 at 11,047; these edges 10 and 14).
    """

    __slots__ = (
        "_bounds", "_nx", "_ny", "_x_edges", "_y_edges", "_x_edge_list", "_y_edge_list",
        "_drawn_longest", "_start", "_len", "_rows", "_rects", "_rule",
    )

    def __init__(self, rects: np.ndarray, bounds) -> None:
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        b = tuple(float(v) for v in bounds)
        per_axis = max(1, math.ceil(math.sqrt(2 * rects.shape[0])))
        self._bounds = b
        self._x_edges = _axis_edges(rects[:, 0], b[0], b[2], per_axis)
        self._y_edges = _axis_edges(rects[:, 1], b[1], b[3], per_axis)
        self._nx = self._x_edges.shape[0] - 1
        self._ny = self._y_edges.shape[0] - 1
        self._x_edge_list = self._x_edges.tolist()
        self._y_edge_list = self._y_edges.tolist()
        self._file(rects)
        self._drawn_longest = int(self._len.max(initial=0))

    def _file(self, rects: np.ndarray) -> None:
        """File rect i under every cell of [cell(min), cell(max)]², one
        CSR segment per cell, rows ascending inside a segment."""
        nx, n = self._nx, rects.shape[0]
        cx0 = _cells(self._x_edges, rects[:, 0])
        cx1 = _cells(self._x_edges, rects[:, 2])
        cy0 = _cells(self._y_edges, rects[:, 1])
        cy1 = _cells(self._y_edges, rects[:, 3])
        width = cx1 - cx0 + 1
        per_rect = width * (cy1 - cy0 + 1)
        rows = np.repeat(np.arange(n, dtype=np.int64), per_rect)
        within = np.arange(rows.shape[0], dtype=np.int64) - np.repeat(
            np.cumsum(per_rect) - per_rect, per_rect
        )
        w = width[rows]
        cell = (cy0[rows] + within // w) * nx + cx0[rows] + within % w
        self._rows = rows[np.argsort(cell, kind="stable")]
        self._len = np.bincount(cell, minlength=nx * self._ny)
        self._start = np.cumsum(self._len) - self._len
        # The rule per rect, with the universe-edge closure folded in:
        # for an in-universe x, ``x < max or max >= east`` is
        # ``x < (inf if max >= east else max)``.
        self._rects = rects.copy()
        self._rects[:, 2:][rects[:, 2:] >= self._bounds[2:]] = np.inf
        # As C doubles, four per row, which index to Python floats
        # (:meth:`home_of` tests a few rects, below numpy's per-item cost).
        self._rule = array("d", self._rects.tobytes())

    def refiled(self, rects: np.ndarray) -> "BlockLocator":
        """A locator over ``rects`` (same universe) on these edges, which
        exactness lets stay (it needs only a monotone cell function) until
        the longest bucket outgrows twice the one they were drawn with:
        then, rects having piled into coarse cells, new ones are drawn."""
        rects = np.asarray(rects, dtype=float).reshape(-1, 4)
        out = copy.copy(self)
        out._file(rects)
        if out._len.max(initial=0) > 2 * self._drawn_longest:
            return BlockLocator(rects, self._bounds)
        return out

    def _buckets(self, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(inside, cell)``: the in-universe points and their cells."""
        b = self._bounds
        inside = np.flatnonzero(
            (xs >= b[0]) & (xs <= b[2]) & (ys >= b[1]) & (ys <= b[3])
        )
        cell = _cells(self._y_edges, ys[inside]) * self._nx + _cells(
            self._x_edges, xs[inside]
        )
        return inside, cell

    def candidates(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(m,)`` rects :meth:`home` examines per point (its bucket size).

        The locator's work, as a count: 0 for a point outside the
        universe, otherwise the number of rects filed under its cell —
        every one of which :meth:`home` tests.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
        out = np.zeros(xs.shape[0], dtype=np.int64)
        inside, cell = self._buckets(xs, ys)
        out[inside] = self._len[cell]
        return out

    def home(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """``(m,)`` row of the first rect containing each point, or ``-1``.

        A constant number of array calls whatever ``n`` is: every
        point's bucket is laid out in one flat candidate array, tested
        in one pass, and the first hit of each point's (row-ascending)
        segment wins.  Up to :data:`_SMALL_BATCH` points are answered by
        :meth:`home_of` one at a time instead.
        """
        xs = np.asarray(xs, dtype=float).reshape(-1)
        ys = np.asarray(ys, dtype=float).reshape(-1)
        if xs.shape[0] <= _SMALL_BATCH:
            return np.array(
                [self.home_of(x, y) for x, y in zip(xs.tolist(), ys.tolist())], dtype=np.int64
            )
        out = np.full(xs.shape[0], -1, dtype=np.int64)
        inside, cell = self._buckets(xs, ys)
        lengths = self._len[cell]
        total = int(lengths.sum())
        if total == 0:
            return out
        point = np.repeat(np.arange(inside.shape[0]), lengths)
        slot = np.arange(total) + np.repeat(
            self._start[cell] - (np.cumsum(lengths) - lengths), lengths
        )
        row = self._rows[slot]
        x = xs[inside][point]
        y = ys[inside][point]
        lo_x, lo_y, hi_x, hi_y = self._rects[row].T
        hits = np.flatnonzero((lo_x <= x) & (x < hi_x) & (lo_y <= y) & (y < hi_y))
        hit_point = point[hits]
        first = np.ones(hits.shape[0], dtype=bool)
        first[1:] = hit_point[1:] != hit_point[:-1]
        out[inside[hit_point[first]]] = row[hits[first]]
        return out

    def home_of(self, x: float, y: float) -> int:
        """:meth:`home` for one point: one bucket slice, no batch set-up."""
        b = self._bounds
        if not (b[0] <= x <= b[2] and b[1] <= y <= b[3]):
            return -1
        # In the universe, so bisect - 1 >= 0; only the far edge clips.
        cell = min(bisect_right(self._y_edge_list, y) - 1, self._ny - 1) * self._nx + min(
            bisect_right(self._x_edge_list, x) - 1, self._nx - 1
        )
        start = self._start[cell]
        rule = self._rule
        for row in self._rows[start : start + self._len[cell]].tolist():
            at = 4 * row
            if rule[at] <= x < rule[at + 2] and rule[at + 1] <= y < rule[at + 3]:
                return row
        return -1
