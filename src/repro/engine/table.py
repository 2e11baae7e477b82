"""Attribute-carrying spatial tables.

A :class:`SpatialTable` is the engine's base relation: an ``(n, 2)``
point array, named attribute columns aligned with the points, and a
quadtree index over the locations.  Because the quadtree reorders the
points into blocks, it records each block's input row positions as it
partitions (:meth:`~repro.index.quadtree.Quadtree.row_ids_for`), so
attribute lookups stay aligned.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.index.base import BlockPointsView, validate_points
from repro.index.quadtree import Quadtree
from repro.index.snapshot import IndexSnapshot


class SpatialTable:
    """A named spatial relation with attribute columns.

    Args:
        name: Relation name (used in plans and statistics keys).
        points: ``(n, 2)`` point locations.
        attributes: Mapping of column name to an ``(n,)`` array aligned
            with ``points``.
        capacity: Leaf capacity of the table's quadtree index.

    Raises:
        ValueError: On misaligned columns or invalid points.
    """

    def __init__(
        self,
        name: str,
        points,
        attributes: Mapping[str, np.ndarray] | None = None,
        capacity: int = 256,
    ) -> None:
        if not name:
            raise ValueError("tables need a non-empty name")
        pts = validate_points(points)
        self.name = name
        self._points = pts
        self._attributes: dict[str, np.ndarray] = {}
        for column, values in (attributes or {}).items():
            arr = np.asarray(values)
            if arr.shape != (pts.shape[0],):
                raise ValueError(
                    f"column {column!r} has shape {arr.shape}, expected "
                    f"({pts.shape[0]},)"
                )
            self._attributes[column] = arr
        self._index = Quadtree(pts, capacity=capacity)
        self._snapshot = IndexSnapshot.from_index(self._index)
        self._block_points: tuple[BlockPointsView, np.ndarray] | None = None

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Number of rows (points)."""
        return int(self._points.shape[0])

    @property
    def points(self) -> np.ndarray:
        """The ``(n, 2)`` location array in row order."""
        return self._points

    @property
    def columns(self) -> tuple[str, ...]:
        """Names of the attribute columns."""
        return tuple(self._attributes)

    @property
    def index(self) -> Quadtree:
        """The table's quadtree index (blocks carry row ids)."""
        return self._index

    @property
    def snapshot(self) -> IndexSnapshot:
        """The table's Count-Index: its index's block summary, canonical
        layout (no blocks when the table is empty)."""
        return self._snapshot

    @property
    def block_points(self) -> tuple[BlockPointsView, np.ndarray]:
        """The blocks' points as a view (view block = block id) and each
        point's row id: what the distance browse reads, built on first use.
        The view is the index's own, which the table's Staircase
        estimator reads too."""
        if self._block_points is None:
            row_ids = [self.block_row_ids(b.block_id) for b in self._index.blocks]
            row_ids = np.concatenate(row_ids) if row_ids else np.empty(0, dtype=np.int64)
            self._block_points = (self._index.points_view, row_ids)
        return self._block_points

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------
    def column_values(self, column: str) -> np.ndarray:
        """The full value array of ``column`` in row order.

        Raises:
            KeyError: If the column does not exist.
        """
        if column not in self._attributes:
            raise KeyError(
                f"table {self.name!r} has no column {column!r}; "
                f"available: {sorted(self._attributes)}"
            )
        return self._attributes[column]

    def block_row_ids(self, block_id: int) -> np.ndarray:
        """Original row ids of the points in block ``block_id``."""
        return self._index.row_ids_for(block_id)

    def rows(self, row_ids: np.ndarray) -> dict[str, np.ndarray]:
        """Materialize locations and attributes for the given rows."""
        out: dict[str, np.ndarray] = {
            "x": self._points[row_ids, 0],
            "y": self._points[row_ids, 1],
        }
        for column, values in self._attributes.items():
            out[column] = values[row_ids]
        return out
