"""Executable physical operators.

Every operator executes one query specification and reports the number
of index blocks it scanned — the unit of the paper's cost model — so
planner decisions can be validated against actual costs.

k-NN-Select operators (the two QEPs of Section 1):

* :class:`FilterThenKnnOperator` — full scan, filter, exact k-NN.
* :class:`IncrementalKnnOperator` — distance browsing with predicates
  evaluated on the fly, stopping at k qualifying rows.
* :class:`RegionPrunedKnnOperator` — the same, over only the blocks
  that intersect the query's region.

All browsing runs through :func:`execute_incremental_knn_batch`, the
array browse of :mod:`repro.knn.browse` (fixed-shape rounds over a
whole batch of queries).

k-NN-Join operators:

* :class:`LocalityJoinOperator` — block-by-block locality join
  (predicates handled by inflating k to ``k / σ`` before the per-point
  top-k filter, which is exact only while enough qualifying rows fall
  inside each locality; a spatially correlated predicate breaks that
  silently).
* :class:`PerPointSelectsOperator` — one incremental k-NN-Select per
  outer row (wins for small outer relations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.table import SpatialTable
from repro.geometry import Point
from repro.knn.browse import browse, view_gather
from repro.knn.locality import locality_block_indices


@dataclass
class ExecutionResult:
    """Outcome of running a physical operator.

    Attributes:
        operator: Name of the operator that produced the result.
        blocks_scanned: Number of index blocks read (the paper's cost).
        row_ids: For selects: qualifying row ids in distance order.
        join_pairs: For joins: list of ``(outer_row_id, inner_row_ids)``
            with inner ids in distance order.
    """

    operator: str
    blocks_scanned: int
    row_ids: np.ndarray | None = None
    join_pairs: list[tuple[int, np.ndarray]] = field(default_factory=list)

    @property
    def n_results(self) -> int:
        """Number of result rows (select) or outer rows (join)."""
        if self.row_ids is not None:
            return int(self.row_ids.shape[0])
        return len(self.join_pairs)


def _row_mask(table: SpatialTable, query, row_ids: np.ndarray) -> np.ndarray:
    """Which of ``row_ids`` pass the query's region and predicate filters."""
    mask = np.ones(row_ids.shape[0], dtype=bool)
    region = query.region
    if region is not None:
        pts = table.points[row_ids]
        mask &= (
            (pts[:, 0] >= region.x_min)
            & (pts[:, 0] <= region.x_max)
            & (pts[:, 1] >= region.y_min)
            & (pts[:, 1] <= region.y_max)
        )
    if query.predicate is not None:
        mask &= query.predicate.evaluate(table, row_ids)
    return mask


class FilterThenKnnOperator:
    """QEP (i): filter everything first, then take the k closest.

    Scans every block of the relation (the relational/spatial filters
    have no index support in this engine), so its cost is the block
    count — independent of k.
    """

    name = "filter-then-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Scan every block, filter, then answer the k-NN exactly."""
        table, query = self._table, self._query
        scanned = 0
        qualifying: list[np.ndarray] = []
        for block in table.index.blocks:
            scanned += 1
            row_ids = table.block_row_ids(block.block_id)
            mask = _row_mask(table, query, row_ids)
            if mask.any():
                qualifying.append(row_ids[mask])
        if not qualifying:
            return ExecutionResult(self.name, scanned, row_ids=np.empty(0, dtype=np.int64))
        rows = np.concatenate(qualifying)
        pts = table.points[rows]
        dists = np.hypot(pts[:, 0] - query.query.x, pts[:, 1] - query.query.y)
        order = np.argsort(dists, kind="stable")[: query.k]
        return ExecutionResult(self.name, scanned, row_ids=rows[order])


class IncrementalKnnOperator:
    """QEP (ii): distance browsing with on-the-fly filtering."""

    name = "incremental-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Browse neighbors in distance order until k rows qualify."""
        return execute_incremental_knn_batch(
            self._table, [self._query], self._table.snapshot
        )[0]


def execute_incremental_knn_batch(
    table: SpatialTable, queries: list[KnnSelectQuery], snapshot
) -> list[ExecutionResult]:
    """Execute incremental k-NN selects: the engine's one distance browser.

    One :func:`~repro.knn.browse.browse` over ``snapshot`` takes every
    query to its stop in fixed-shape array rounds, and each answer is
    the stable argsort of its scanned prefix's distances, cut at ``k``.

    This is exactly heap-based distance browsing: leaf blocks are
    scanned in MINDIST order, and a block is scanned iff fewer than
    ``k`` already-gathered *qualifying* rows lie strictly closer than
    its MINDIST (the browser's ``tuples[0][0] < blocks[0][0]`` test).
    Predicates and region containment are a row mask applied as each
    block is gathered — the browser's "stop at k qualifying rows" rule.

    Args:
        table: The (shared) relation every query targets.
        queries: The queries, in serving order.
        snapshot: An :class:`~repro.index.snapshot.IndexSnapshot` of the
            table's blocks in any layout — the whole index, or the
            sub-snapshot of the blocks the queries may scan.
    """
    masks = [
        partial(_row_mask, table, q) if q.predicate is not None or q.region is not None else None
        for q in queries
    ]
    browsed = browse(
        snapshot,
        view_gather(*table.block_points),
        [(q.query.x, q.query.y) for q in queries],
        [q.k for q in queries],
        masks if any(masks) else None,
    )
    return [
        ExecutionResult(
            IncrementalKnnOperator.name,
            len(b.mindists),
            row_ids=b.row_ids[np.argsort(b.dists, kind="stable")[: q.k]],
        )
        for q, b in zip(queries, browsed)
    ]


class RegionPrunedKnnOperator:
    """QEP (iii): distance browsing that prunes blocks outside a region.

    For a region-constrained k-NN the plain incremental plan still
    scans blocks that cannot contain answers (they pass the MINDIST
    test but miss the region).  This operator adds the region to the
    block admission test, so its cost is bounded by the number of
    blocks overlapping the region — often far below both other plans.

    Only applicable when ``query.region`` is set.
    """

    name = "region-pruned-knn"

    def __init__(self, table: SpatialTable, query: KnnSelectQuery) -> None:
        if query.region is None:
            raise ValueError("region-pruned browsing needs a region")
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Browse the blocks intersecting the region until k rows qualify."""
        snapshot = self._table.snapshot
        inside = snapshot.extract(snapshot.overlapping(self._query.region))
        result = execute_incremental_knn_batch(self._table, [self._query], inside)[0]
        result.operator = self.name
        return result


class IndexRangeScanOperator:
    """Range select via the spatial index: scan only overlapping blocks.

    The fixed-region counterpart of the k-NN operators — "the spatial
    region ... is predefined and fixed in the query", so the index
    prunes exactly and the cost is the number of overlapping blocks.
    """

    name = "index-range-scan"

    def __init__(self, table: SpatialTable, query: RangeQuery) -> None:
        self._table = table
        self._query = query

    def execute(self) -> ExecutionResult:
        """Scan only the blocks overlapping the region, then filter."""
        table, query = self._table, self._query
        scanned = 0
        qualifying: list[np.ndarray] = []
        for block in table.index.range_query_blocks(query.region):
            scanned += 1
            row_ids = table.block_row_ids(block.block_id)
            mask = _row_mask(table, query, row_ids)
            if mask.any():
                qualifying.append(row_ids[mask])
        rows = (
            np.concatenate(qualifying)
            if qualifying
            else np.empty(0, dtype=np.int64)
        )
        return ExecutionResult(self.name, scanned, row_ids=rows)


class LocalityJoinOperator:
    """Block-by-block locality k-NN-Join with optional inner predicate.

    With a predicate of selectivity σ, localities are computed at the
    inflated ``k' = ceil(k / σ)`` so that, in expectation, enough
    qualifying inner rows fall inside each locality; the per-point
    top-k then filters exactly.  Without a predicate the answer is
    exact.  With one it is not guaranteed: when the qualifying rows are
    spatially correlated (all in one region) a locality can hold fewer
    than k of them, and the outer rows there get wrong neighbour lists.
    Nothing flags this — the planner costs and picks this operator like
    an exact one.
    """

    name = "locality-join"

    def __init__(
        self,
        outer: SpatialTable,
        inner: SpatialTable,
        query: KnnJoinQuery,
        selectivity: float = 1.0,
    ) -> None:
        if not 0.0 < selectivity <= 1.0:
            raise ValueError(f"selectivity must be in (0, 1], got {selectivity}")
        self._outer = outer
        self._inner = inner
        self._query = query
        self._selectivity = selectivity

    def execute(self) -> ExecutionResult:
        """Run the block-by-block locality join."""
        outer, inner, query = self._outer, self._inner, self._query
        inner_snapshot = inner.snapshot
        k_effective = min(
            math.ceil(query.k / self._selectivity), max(inner.n_rows, 1)
        )
        scanned = 0
        pairs: list[tuple[int, np.ndarray]] = []
        for block in outer.index.blocks:
            locality = locality_block_indices(inner_snapshot, block.rect, k_effective)
            scanned += int(locality.shape[0])
            candidate_rows = np.concatenate(
                [inner.block_row_ids(i) for i in locality]
            ) if locality.size else np.empty(0, dtype=np.int64)
            if query.inner_predicate is not None and candidate_rows.size:
                mask = query.inner_predicate.evaluate(inner, candidate_rows)
                candidate_rows = candidate_rows[mask]
            outer_rows = outer.block_row_ids(block.block_id)
            if candidate_rows.size == 0:
                pairs.extend(
                    (int(r), np.empty(0, dtype=np.int64)) for r in outer_rows
                )
                continue
            cand_pts = inner.points[candidate_rows]
            outer_pts = outer.points[outer_rows]
            dx = outer_pts[:, 0, None] - cand_pts[None, :, 0]
            dy = outer_pts[:, 1, None] - cand_pts[None, :, 1]
            dists = np.hypot(dx, dy)
            k_eff = min(query.k, candidate_rows.shape[0])
            if k_eff < candidate_rows.shape[0]:
                top = np.argpartition(dists, k_eff - 1, axis=1)[:, :k_eff]
            else:
                top = np.broadcast_to(
                    np.arange(candidate_rows.shape[0]),
                    (outer_rows.shape[0], candidate_rows.shape[0]),
                ).copy()
            row_dists = np.take_along_axis(dists, top, axis=1)
            order = np.argsort(row_dists, axis=1, kind="stable")
            sorted_idx = np.take_along_axis(top, order, axis=1)
            for i, outer_row in enumerate(outer_rows):
                pairs.append((int(outer_row), candidate_rows[sorted_idx[i]]))
        return ExecutionResult(self.name, scanned, join_pairs=pairs)


class PerPointSelectsOperator:
    """Execute the join as one incremental k-NN-Select per outer row."""

    name = "per-point-selects"

    def __init__(
        self, outer: SpatialTable, inner: SpatialTable, query: KnnJoinQuery
    ) -> None:
        self._outer = outer
        self._inner = inner
        self._query = query

    def execute(self) -> ExecutionResult:
        """Run one incremental k-NN-Select per outer row."""
        outer, inner, query = self._outer, self._inner, self._query
        selects = [
            KnnSelectQuery(
                table=inner.name,
                query=Point(float(x), float(y)),
                k=query.k,
                predicate=query.inner_predicate,
            )
            for x, y in outer.points
        ]
        results = execute_incremental_knn_batch(inner, selects, inner.snapshot)
        return ExecutionResult(
            self.name,
            sum(result.blocks_scanned for result in results),
            join_pairs=[(i, result.row_ids) for i, result in enumerate(results)],
        )
