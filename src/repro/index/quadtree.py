"""A point-region (PR) quadtree.

This is the paper's data index: "each node in the quadtree represents a
region of space that is recursively decomposed into four equal
quadrants ... with each leaf node containing points that correspond to
a specific subregion" (Section 5), splitting whenever a leaf exceeds the
maximum block capacity.

The implementation is numpy-backed: the tree is built by recursively
partitioning one coordinate array with boolean masks, so construction is
O(n log n) with vectorized inner loops and comfortably handles the
hundreds of thousands of points the scaled-down reproduction uses.

The quadtree is *space-partitioning*: any query point inside the index
bounds falls inside exactly one leaf region, which is the property the
Staircase technique requires from the auxiliary index (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.geometry import Point, Rect
from repro.index.base import Block, BlockPointsView, IndexNode, SpatialIndex, validate_points

#: Default maximum leaf capacity.  The paper uses 10,000 at OSM scale
#: (10M-100M points); the reproduction default is scaled so that the
#: *number of blocks* — the unit of every cost — is comparable.
DEFAULT_CAPACITY = 256

#: Safety valve against pathological splits (e.g. > capacity duplicate
#: points at one location can never be separated by subdivision).
DEFAULT_MAX_DEPTH = 32


@dataclass(slots=True)
class QuadtreeNode(IndexNode):
    """One quadtree node; a leaf when ``_children`` is empty."""

    _rect: Rect
    _children: list["QuadtreeNode"]
    _block: Block | None
    depth: int

    @property
    def rect(self) -> Rect:
        return self._rect

    @property
    def is_leaf(self) -> bool:
        return not self._children

    @property
    def children(self) -> Sequence["QuadtreeNode"]:
        return self._children

    @property
    def block(self) -> Block | None:
        return self._block


class Quadtree(SpatialIndex):
    """A PR quadtree over a two-dimensional point set.

    Args:
        points: ``(n, 2)`` array-like of point coordinates.
        bounds: The region to index.  Defaults to the tight bounding box
            of the points, expanded into a square (region quadtrees
            decompose a square universe into equal quadrants).
        capacity: Maximum number of points per leaf before splitting.
        max_depth: Depth cap guarding against unsplittable duplicates.

    Raises:
        ValueError: If any point falls outside ``bounds`` or parameters
            are invalid.
    """

    def __init__(
        self,
        points,
        bounds: Rect | None = None,
        capacity: int = DEFAULT_CAPACITY,
        max_depth: int = DEFAULT_MAX_DEPTH,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        pts = validate_points(points)
        self._capacity = capacity
        self._max_depth = max_depth
        self._bounds = _resolve_bounds(pts, bounds)
        if pts.shape[0]:
            inside_x = (pts[:, 0] >= self._bounds.x_min) & (pts[:, 0] <= self._bounds.x_max)
            inside_y = (pts[:, 1] >= self._bounds.y_min) & (pts[:, 1] <= self._bounds.y_max)
            if not np.all(inside_x & inside_y):
                n_out = int(np.count_nonzero(~(inside_x & inside_y)))
                raise ValueError(f"{n_out} point(s) fall outside the index bounds")
        self._row_ids: list[np.ndarray] = []
        self._leaves: list[QuadtreeNode] = []
        filled: list[QuadtreeNode] = []
        self._root = self._build(
            pts, np.arange(pts.shape[0], dtype=np.int64), self._bounds, 0, filled
        )
        # The points once, in block order: each block's points are a
        # slice of it, and points_view reads its columns.
        self._ordered = pts[np.concatenate(self._row_ids)] if filled else pts
        self._offsets = np.zeros(len(filled) + 1, dtype=np.int64)
        np.cumsum([rows.shape[0] for rows in self._row_ids], out=self._offsets[1:])
        bounds = self._offsets.tolist()
        self._blocks: list[Block] = []
        for block_id, leaf in enumerate(filled):
            points = self._ordered[bounds[block_id] : bounds[block_id + 1]]
            leaf._block = Block(block_id, leaf.rect, points)
            self._blocks.append(leaf._block)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(
        self, pts: np.ndarray, rows: np.ndarray, rect: Rect, depth: int, filled: list
    ) -> QuadtreeNode:
        """Recursively build the subtree for ``pts`` (input rows ``rows``)
        within ``rect``; non-empty leaves join ``filled``, in block order,
        to get their blocks once the tree is built."""
        if pts.shape[0] <= self._capacity or depth >= self._max_depth:
            leaf = QuadtreeNode(rect, [], None, depth)
            self._leaves.append(leaf)
            if pts.shape[0]:
                filled.append(leaf)
                self._row_ids.append(rows)
            return leaf
        cx = (rect.x_min + rect.x_max) / 2.0
        cy = (rect.y_min + rect.y_max) / 2.0
        west = pts[:, 0] < cx
        south = pts[:, 1] < cy
        quadrant_masks = (
            west & south,  # SW
            ~west & south,  # SE
            west & ~south,  # NW
            ~west & ~south,  # NE
        )
        children = [
            self._build(pts[mask], rows[mask], quadrant, depth + 1, filled)
            for mask, quadrant in zip(quadrant_masks, rect.quadrants())
        ]
        return QuadtreeNode(rect, children, None, depth)

    # ------------------------------------------------------------------
    # SpatialIndex interface
    # ------------------------------------------------------------------
    @property
    def bounds(self) -> Rect:
        return self._bounds

    @property
    def root(self) -> QuadtreeNode:
        return self._root

    @property
    def blocks(self) -> Sequence[Block]:
        return self._blocks

    @property
    def capacity(self) -> int:
        return self._capacity

    @cached_property
    def points_view(self) -> BlockPointsView:
        """The blocks' points in block order: the tree never changes, so
        its table and its Staircase estimator share this one view, and
        it reads the same columns the blocks slice."""
        return BlockPointsView(self._ordered, self._offsets)

    def row_ids_for(self, block_id: int) -> np.ndarray:
        """Input row positions of the points in block ``block_id``, in
        the block's point order."""
        return self._row_ids[block_id]

    # ------------------------------------------------------------------
    # Space-partitioning specific operations
    # ------------------------------------------------------------------
    @property
    def leaves(self) -> Sequence[QuadtreeNode]:
        """All leaf nodes, including structurally-empty ones.

        Staircase catalogs are anchored at leaf regions of the auxiliary
        index, so empty leaves matter here even though they never count
        toward scan costs.
        """
        return self._leaves

    def leaf_for(self, p: Point) -> QuadtreeNode:
        """Return the leaf whose region contains ``p``.

        Points on quadrant boundaries are resolved to the east/north
        side, mirroring the strict ``<`` split used during construction.

        Raises:
            ValueError: If ``p`` is outside the index bounds.
        """
        if not self._bounds.contains_point(p):
            raise ValueError(f"query point {p} is outside the index bounds {self._bounds}")
        node = self._root
        while not node.is_leaf:
            cx = (node.rect.x_min + node.rect.x_max) / 2.0
            cy = (node.rect.y_min + node.rect.y_max) / 2.0
            child_idx = (0 if p.x < cx else 1) + (0 if p.y < cy else 2)
            node = node.children[child_idx]
        return node

    def block_for(self, p: Point) -> Block | None:
        """Return the non-empty block containing ``p``, if any."""
        return self.leaf_for(p).block

    def depth(self) -> int:
        """Maximum leaf depth of the tree."""
        return max(leaf.depth for leaf in self._leaves)


def _resolve_bounds(pts: np.ndarray, bounds: Rect | None) -> Rect:
    """Pick the universe rectangle: given, or a square box of the data."""
    if bounds is not None:
        return bounds
    if pts.shape[0] == 0:
        return Rect(0.0, 0.0, 1.0, 1.0)
    x_min, y_min = pts.min(axis=0)
    x_max, y_max = pts.max(axis=0)
    side = max(x_max - x_min, y_max - y_min)
    if side == 0.0:
        side = 1.0
    # Expand slightly so boundary points are strictly inside, then square
    # the region: a region quadtree decomposes a square universe.
    pad = side * 1e-9 + 1e-12
    cx = (x_min + x_max) / 2.0
    cy = (y_min + y_max) / 2.0
    half = side / 2.0 + pad
    return Rect(cx - half, cy - half, cx + half, cy + half)
