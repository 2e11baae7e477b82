"""The heap-based distance browsers, kept as the oracles of the production path.

:class:`DistanceBrowser` is Hjaltason and Samet's two-priority-queue
browser over the index hierarchy with a scan counter, the paper-faithful
reference that ``repro.knn``'s ``knn_select`` / ``select_cost`` /
``select_costs`` (now wrappers over ``repro.knn.browse.browse``) are held
to.  :class:`RowDistanceBrowser` is the same browser as the engine used
to run it for scalar, predicate and region queries (``engine.physical``
before the stream + merge browser replaced it), moved here unchanged:
hierarchical descent from the index root, tuples carrying *row ids*,
filters evaluated row by row, optional region pruning of subtrees.  The
differential tests assert that the production browser scans exactly the
blocks these scan.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Iterator

import numpy as np

from repro.engine.queries import KnnSelectQuery
from repro.engine.table import SpatialTable
from repro.geometry import Point, mindist_point_rect
from repro.knn.browse import BlockPointsView


class IndexTable:
    """Any :class:`~repro.index.base.SpatialIndex` as an executor table.

    Row ids are positions in the block-order concatenation of the
    index's points — enough of :class:`SpatialTable` (``index``,
    ``points``, ``block_row_ids``, ``block_points``) for predicate-free
    browsing over grid and R-tree substrates, which ``SpatialTable``
    (quadtree only) cannot carry.
    """

    def __init__(self, index) -> None:
        blocks = index.blocks
        self.index = index
        self.points = np.concatenate([b.points for b in blocks]).reshape(-1, 2)
        starts = np.cumsum([0] + [b.count for b in blocks])
        self._row_ids = [
            np.arange(starts[i], starts[i + 1], dtype=np.int64)
            for i in range(len(blocks))
        ]
        self.block_points = (BlockPointsView.from_blocks(blocks), np.arange(starts[-1]))

    def block_row_ids(self, block_id: int) -> np.ndarray:
        return self._row_ids[block_id]


class DistanceBrowser:
    """Incremental nearest-neighbor browser over a hierarchical index.

    Usage::

        browser = DistanceBrowser(index, query_point)
        nearest = next(browser)            # (distance, x, y)
        more = browser.next_nearest()      # same, method form
        browser.blocks_scanned             # cost so far

    The browser is an iterator yielding points in non-decreasing
    distance order; iteration ends when the index is exhausted.

    Args:
        index: The data index.
        query: The query focal point.
    """

    def __init__(self, index, query: Point) -> None:
        self._query = query
        self._counter = itertools.count()  # tie-breaker for heap entries
        self._block_queue: list[tuple[float, int, object]] = []
        self._tuple_queue: list[tuple[float, float, float]] = []
        self._blocks_scanned = 0
        root = index.root
        heapq.heappush(
            self._block_queue,
            (mindist_point_rect(query, root.rect), next(self._counter), root),
        )

    @property
    def blocks_scanned(self) -> int:
        """Number of non-empty leaf blocks scanned so far (the cost)."""
        return self._blocks_scanned

    def __iter__(self) -> Iterator[tuple[float, float, float]]:
        return self

    def __next__(self) -> tuple[float, float, float]:
        result = self.next_nearest()
        if result is None:
            raise StopIteration
        return result

    def _scan(self, block) -> None:
        self._blocks_scanned += 1
        dists = block.distances_from(self._query)
        for dist, (x, y) in zip(dists, block.points):
            heapq.heappush(self._tuple_queue, (float(dist), float(x), float(y)))

    def next_nearest(self) -> tuple[float, float, float] | None:
        """Return the next nearest ``(distance, x, y)``, or ``None``.

        Mirrors the paper's ``getNextNearest()``: the top of the
        tuples-queue is returned if its distance is strictly less than
        the MINDIST of the top of the blocks-queue; otherwise the top
        block is scanned and its tuples enqueued.
        """
        while True:
            if self._tuple_queue and (
                not self._block_queue
                or self._tuple_queue[0][0] < self._block_queue[0][0]
            ):
                return heapq.heappop(self._tuple_queue)
            if not self._block_queue:
                return None
            __, __, node = heapq.heappop(self._block_queue)
            if node.is_leaf:
                block = node.block
                if block is None:
                    continue  # structurally-empty leaf: no block to scan
                self._scan(block)
            else:
                for child in node.children:
                    heapq.heappush(
                        self._block_queue,
                        (
                            mindist_point_rect(self._query, child.rect),
                            next(self._counter),
                            child,
                        ),
                    )


def knn_select(index, query: Point, k: int) -> tuple[np.ndarray, int]:
    """Run a k-NN-Select via the heap browser.

    Args:
        index: The data index.
        query: The query focal point.
        k: Number of neighbors to retrieve.

    Returns:
        ``(neighbors, cost)`` where ``neighbors`` is a ``(m, 2)`` array
        of the k nearest points in distance order (``m < k`` if the
        index holds fewer points) and ``cost`` is the number of blocks
        scanned.

    Raises:
        ValueError: If ``k < 1``.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    browser = DistanceBrowser(index, query)
    found = list(itertools.islice(browser, k))
    neighbors = np.array([(x, y) for __, x, y in found], dtype=float).reshape(-1, 2)
    return neighbors, browser.blocks_scanned


def select_cost(index, query: Point, k: int) -> int:
    """The heap browser's cost of ``σ_kNN,q`` (blocks scanned)."""
    __, cost = knn_select(index, query, k)
    return cost


def qualifies(table: SpatialTable, query: KnnSelectQuery, row_id: int) -> bool:
    """Whether one row passes the query's spatial and relational filters."""
    if query.region is not None:
        x, y = table.points[row_id]
        if not query.region.contains_point(Point(float(x), float(y))):
            return False
    if query.predicate is not None:
        return query.predicate.evaluate_row(table, row_id)
    return True


class RowDistanceBrowser:
    """Distance browsing over a table, yielding *row ids* in order.

    Identical to :class:`DistanceBrowser` except tuples carry
    row ids so attribute predicates can be evaluated per result, and an
    optional region prunes non-overlapping subtrees.
    """

    def __init__(self, table: SpatialTable, query: Point, region=None) -> None:
        self._region = region
        self._table = table
        self._query = query
        self._counter = itertools.count()
        self._blocks: list[tuple[float, int, object]] = []
        self._tuples: list[tuple[float, int, int]] = []
        self.blocks_scanned = 0
        root = table.index.root
        heapq.heappush(
            self._blocks, (mindist_point_rect(query, root.rect), next(self._counter), root)
        )

    def __iter__(self):
        return self

    def __next__(self) -> int:
        while True:
            if self._tuples and (
                not self._blocks or self._tuples[0][0] < self._blocks[0][0]
            ):
                return heapq.heappop(self._tuples)[2]
            if not self._blocks:
                raise StopIteration
            __, __, node = heapq.heappop(self._blocks)
            if node.is_leaf:
                block = node.block
                if block is None:
                    continue
                if self._region is not None and not block.rect.intersects(
                    self._region
                ):
                    continue
                self.blocks_scanned += 1
                row_ids = self._table.block_row_ids(block.block_id)
                dists = block.distances_from(self._query)
                for dist, row_id in zip(dists, row_ids):
                    heapq.heappush(
                        self._tuples, (float(dist), next(self._counter), int(row_id))
                    )
            else:
                for child in node.children:
                    if self._region is not None and not child.rect.intersects(
                        self._region
                    ):
                        continue  # nothing qualifying can live there
                    heapq.heappush(
                        self._blocks,
                        (
                            mindist_point_rect(self._query, child.rect),
                            next(self._counter),
                            child,
                        ),
                    )


def heap_knn_select(
    table: SpatialTable, query: KnnSelectQuery, *, prune: bool = False
) -> tuple[np.ndarray, int]:
    """Browse until ``k`` rows qualify: ``(row_ids, blocks_scanned)``.

    ``prune=True`` is the old region-pruned operator (the region also
    prunes subtrees); ``False`` the old incremental operator.
    """
    browser = RowDistanceBrowser(
        table, query.query, region=query.region if prune else None
    )
    found: list[int] = []
    for row_id in browser:
        if qualifies(table, query, row_id):
            found.append(row_id)
            if len(found) == query.k:
                break
    return np.array(found, dtype=np.int64), browser.blocks_scanned


def corner_tie_table() -> tuple[SpatialTable, KnnSelectQuery]:
    """A row on an unscanned block's corner, exactly at the k-th distance.

    The universe splits at (64, 64); from (92, 111) the SW quadrant's
    MINDIST is hypot(28, 47) to that corner, and row 0 — in the NE
    quadrant, the query's own block — sits on it as the 3rd neighbour.
    hypot(28, 47) is one of the inputs on which libm and the ``math``
    module's hypot differ by 1 ulp: with the row distance from one and
    the block threshold from the other, 54.708317466359716 <
    54.70831746635972 ended the scan before the SW block.  Under one
    definition ``dist == MINDIST``, not strictly below, and the strict
    rule scans all four blocks.
    """
    points = np.array(
        [[64, 64], [128, 128], [90, 110], [10, 100], [100, 10], [0, 0], [30, 30]], dtype=float
    )
    return SpatialTable("t", points, capacity=3), KnnSelectQuery("t", Point(92.0, 111.0), k=3)
