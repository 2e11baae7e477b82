"""Common abstractions shared by all spatial indexes.

Terminology follows the paper: a *block* is a leaf region of the index
holding actual data points; the *cost* of every k-NN operation is the
number of blocks scanned.  Empty leaves of a space-partitioning index
occupy no storage in a real system, so they are excluded from every
block enumeration and from all cost accounting (see DESIGN.md §5).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.geometry import Point, Rect


@dataclass(frozen=True, slots=True)
class Block:
    """A leaf index block: a rectangular region plus the points inside it.

    Attributes:
        block_id: Index-local identifier, dense in ``[0, n_blocks)`` over
            the *non-empty* leaves so that estimator arrays line up.
        rect: The spatial extent of the block.  For a space-partitioning
            index this is the partition region; for a data-partitioning
            index it is the minimum bounding rectangle.
        points: ``(n, 2)`` float array of the points stored in the block.
    """

    block_id: int
    rect: Rect
    points: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        """Number of points stored in the block."""
        return int(self.points.shape[0])

    def distances_from(self, p: Point) -> np.ndarray:
        """Euclidean distances from ``p`` to every point in the block."""
        if self.count == 0:
            return np.empty(0, dtype=float)
        dx = self.points[:, 0] - p.x
        dy = self.points[:, 1] - p.y
        return np.hypot(dx, dy)


class BlockPointsView:
    """Columnar view of a block list's points, for batched gathers.

    Block ``b`` owns rows ``offsets[b]:offsets[b + 1]`` of the points,
    held as two contiguous coordinate columns ``xs`` / ``ys``, so a batch
    pass gathers any blocks' points with two 1-D fancy indexes and
    measures them with one ``np.hypot`` — bitwise
    ``Block.distances_from``.  Plain ndarrays, so the view pickles as a
    worker payload.
    """

    __slots__ = ("offsets", "xs", "ys")

    def __init__(self, points: np.ndarray, offsets: np.ndarray) -> None:
        points = np.asarray(points, dtype=float).reshape(-1, 2)
        self.offsets = np.asarray(offsets, dtype=np.int64).reshape(-1)
        self.xs = np.ascontiguousarray(points[:, 0])
        self.ys = np.ascontiguousarray(points[:, 1])

    @property
    def points(self) -> np.ndarray:
        """The ``(total, 2)`` points (a fresh array)."""
        return np.column_stack((self.xs, self.ys))

    def gather(self, xy: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
        """Row ``r``'s blocks (``(q, c)`` view ``starts`` / ``lengths``),
        point by point: ``(distance from xy[r], view position)``."""
        totals = lengths.sum(axis=1)
        at = concat_ranges(starts.ravel(), lengths.ravel())
        dx = self.xs[at] - np.repeat(xy[:, 0], totals)
        return np.hypot(dx, self.ys[at] - np.repeat(xy[:, 1], totals)), at

    @classmethod
    def from_blocks(cls, blocks: Sequence) -> "BlockPointsView":
        """Flatten a block sequence into the columnar layout."""
        arrays = [np.asarray(b.points, dtype=float).reshape(-1, 2) for b in blocks]
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        if arrays:
            np.cumsum([a.shape[0] for a in arrays], out=offsets[1:])
            points = np.concatenate(arrays)
        else:
            points = np.empty((0, 2), dtype=float)
        return cls(points, offsets)

    def spliced(
        self, runs: Sequence[tuple[int, int]], pieces: Sequence["BlockPointsView"]
    ) -> "BlockPointsView":
        """This view with each block run ``[lo, hi)`` replaced by a piece's blocks.

        ``runs`` are ascending and disjoint.  The result equals
        :meth:`from_blocks` over the spliced block list.
        """
        counts, points = np.diff(self.offsets), self.points
        parts_points, parts_counts, prev = [], [], 0
        for (lo, hi), piece in zip(runs, pieces):
            parts_points += [points[self.offsets[prev] : self.offsets[lo]], piece.points]
            parts_counts += [counts[prev:lo], np.diff(piece.offsets)]
            prev = hi
        parts_points.append(points[self.offsets[prev] :])
        parts_counts.append(counts[prev:])
        offsets = np.zeros(sum(c.shape[0] for c in parts_counts) + 1, dtype=np.int64)
        np.cumsum(np.concatenate(parts_counts), out=offsets[1:])
        return BlockPointsView(np.concatenate(parts_points), offsets)


def concat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The index ranges ``[starts[j], starts[j] + lengths[j])``, concatenated.

    Each output slot holds its range's start minus the range's output
    offset, and one global ``arange`` supplies the progression.
    """
    out_offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - out_offsets, lengths) + np.arange(
        int(lengths.sum()), dtype=np.int64
    )


class IndexNode(abc.ABC):
    """A node of a hierarchical spatial index.

    Internal nodes expose children; leaf nodes expose their block (which
    is ``None`` for a structurally-empty leaf of a space-partitioning
    index).  The branch-and-bound k-NN algorithms traverse this
    interface so they work identically over quadtrees and R-trees.
    """

    @property
    @abc.abstractmethod
    def rect(self) -> Rect:
        """Spatial extent of the node."""

    @property
    @abc.abstractmethod
    def is_leaf(self) -> bool:
        """Whether the node is a leaf."""

    @property
    @abc.abstractmethod
    def children(self) -> Sequence["IndexNode"]:
        """Child nodes (empty for leaves)."""

    @property
    @abc.abstractmethod
    def block(self) -> Block | None:
        """The data block of a leaf node (``None`` for internal/empty)."""


class SpatialIndex(abc.ABC):
    """A hierarchical spatial index over a two-dimensional point set."""

    @property
    @abc.abstractmethod
    def bounds(self) -> Rect:
        """The overall region covered by the index."""

    @property
    @abc.abstractmethod
    def root(self) -> IndexNode:
        """The root node for hierarchical traversals."""

    @property
    @abc.abstractmethod
    def blocks(self) -> Sequence[Block]:
        """All non-empty leaf blocks, ordered by ``block_id``."""

    @property
    @abc.abstractmethod
    def capacity(self) -> int:
        """Maximum number of points a leaf block may hold."""

    # ------------------------------------------------------------------
    # Derived helpers shared by all index types
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Total number of indexed points."""
        return sum(b.count for b in self.blocks)

    @property
    def num_blocks(self) -> int:
        """Number of non-empty leaf blocks."""
        return len(self.blocks)

    @property
    def points_view(self) -> BlockPointsView:
        """The blocks' points flattened in block order (view block =
        block id); built afresh on every read unless the index keeps one."""
        return BlockPointsView.from_blocks(self.blocks)

    def block_bounds_array(self) -> np.ndarray:
        """``(n_blocks, 4)`` array of block bounds (x_min, y_min, x_max, y_max)."""
        if not self.blocks:
            return np.empty((0, 4), dtype=float)
        return np.array([b.rect.as_tuple() for b in self.blocks], dtype=float)

    def block_counts_array(self) -> np.ndarray:
        """``(n_blocks,)`` int array of per-block point counts."""
        return np.array([b.count for b in self.blocks], dtype=np.int64)

    def range_query_blocks(self, region: Rect) -> list[Block]:
        """Return all non-empty blocks whose extent intersects ``region``."""
        return [b for b in self.blocks if b.rect.intersects(region)]

    def iter_points(self) -> Iterator[np.ndarray]:
        """Yield each block's point array (useful for full scans)."""
        for b in self.blocks:
            yield b.points

    def all_points(self) -> np.ndarray:
        """Materialize all indexed points as one ``(n, 2)`` array."""
        arrays = [b.points for b in self.blocks]
        if not arrays:
            return np.empty((0, 2), dtype=float)
        return np.concatenate(arrays, axis=0)


def validate_points(points: Iterable | np.ndarray) -> np.ndarray:
    """Normalize a point collection to a contiguous ``(n, 2)`` float array.

    Raises:
        ValueError: If the array is not two-dimensional with two columns,
            or contains non-finite coordinates.
    """
    arr = np.ascontiguousarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected an (n, 2) point array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr
