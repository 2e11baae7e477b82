"""The shard planner: partition query space into spatial shards.

A shard is a rectangular region of the universe served by one dedicated
worker process.  The planner derives the shard rectangles from the
table's :class:`~repro.index.snapshot.IndexSnapshot` — recursive
count-weighted median splits over the block centers — so shard load is
balanced by *data mass*, not area: a location-based-service workload
whose focal points follow the data distribution lands roughly ``1/s``
of its queries on each of ``s`` shards.

Routing reuses the index layer's containment rule
(:class:`~repro.index.locator.BlockLocator`): the shard rectangles tile
the universe with the same half-open ``[min, max)`` semantics as
quadtree leaves, so every in-universe focal point maps to exactly one
shard.  Out-of-universe points are routed to the shard with the
smallest MINDIST — routing never fails.

The same plan drives both serving modes.  In **replica** mode the
plan shards the *query space*: every worker owns every block, and a
query is sent to the one shard its focal point routes to.  Nothing
re-routes a dead shard's queries to a healthy sibling: they degrade
to estimate-only answers.  In **data** mode (:func:`partition_blocks`)
the plan shards the *data*: each index block is assigned to the shard
containing its center, each worker receives only its blocks' rows
(memory ∝ n/shards), and a query's browse asks the shards that own
its window's blocks.  Both modes answer through the coordinator's
distance browse (:func:`repro.knn.browse.browse`), whose gather rounds
go to the owning shards.  Either way, spatial partitioning gives each
worker a spatially coherent stream and confines a shard failure to one
region.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.kernels import mindist_rects
from repro.index.locator import BlockLocator
from repro.index.snapshot import IndexSnapshot, as_snapshot


@dataclass(frozen=True)
class ShardPlan:
    """A spatial partitioning of the universe into shard regions.

    Attributes:
        rects: ``(s, 4)`` shard rectangles ``(x_min, y_min, x_max,
            y_max)`` tiling ``bounds``.
        bounds: The universe the rectangles tile.
        weights: ``(s,)`` planning-time data mass (point count) per
            shard — the balance diagnostic.
    """

    rects: np.ndarray
    bounds: tuple[float, float, float, float]
    weights: np.ndarray

    def __post_init__(self) -> None:
        rects = np.asarray(self.rects, dtype=float).reshape(-1, 4)
        weights = np.asarray(self.weights, dtype=np.int64).reshape(-1)
        if rects.shape[0] == 0:
            raise ValueError("a shard plan needs at least one shard")
        if rects.shape[0] != weights.shape[0]:
            raise ValueError(
                f"got {rects.shape[0]} shard rects but {weights.shape[0]} weights"
            )
        object.__setattr__(self, "rects", rects)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_locator", BlockLocator(rects, self.bounds))

    @property
    def n_shards(self) -> int:
        """Number of shard regions."""
        return int(self.rects.shape[0])

    def assign(self, points: np.ndarray) -> np.ndarray:
        """Route focal points to shards: ``(m,)`` shard ids.

        In-universe points use the half-open containment rule;
        out-of-universe points fall back to the nearest shard by
        MINDIST.  Every point gets a shard — routing cannot fail.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        ids = self._locator.home(pts[:, 0], pts[:, 1])
        misses = np.flatnonzero(ids < 0)
        for i in misses:
            x, y = float(pts[i, 0]), float(pts[i, 1])
            ids[i] = int(np.argmin(mindist_rects((x, y, x, y), self.rects)))
        return ids

    def describe(self) -> str:
        """One-line balance summary for logs and the CLI."""
        total = int(self.weights.sum())
        if total == 0:
            return f"{self.n_shards} shards (empty universe)"
        share = self.weights / total
        return (
            f"{self.n_shards} shards, load share "
            f"[{share.min():.1%} .. {share.max():.1%}]"
        )


def plan_shards(index_or_snapshot, n_shards: int) -> ShardPlan:
    """Partition the universe into ``n_shards`` count-balanced regions.

    Recursively splits the heaviest region along its longer axis at the
    count-weighted median of the snapshot's block centers, until
    ``n_shards`` regions exist.  Splits are pure functions of the
    snapshot, so replanning over the same index yields the same shards.
    A region whose blocks cannot be separated (all centers on the split
    boundary) is split at its spatial midpoint instead, so the planner
    always returns exactly ``n_shards`` regions that tile the universe.

    Args:
        index_or_snapshot: Anything :func:`~repro.index.snapshot.as_snapshot`
            accepts — a snapshot or a raw spatial index.
        n_shards: Number of shard regions (>= 1).

    Raises:
        ValueError: If ``n_shards < 1`` or the snapshot is empty with no
            recorded universe.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    snapshot: IndexSnapshot = as_snapshot(index_or_snapshot)
    bounds = snapshot.bounds
    if bounds is None:
        if snapshot.n_blocks == 0:
            raise ValueError("cannot plan shards over an empty snapshot")
        bounds = (
            float(snapshot.rects[:, 0].min()),
            float(snapshot.rects[:, 1].min()),
            float(snapshot.rects[:, 2].max()),
            float(snapshot.rects[:, 3].max()),
        )
    centers = snapshot.centers
    counts = snapshot.counts.astype(np.int64)
    # Each region: (rect, member-block indices).  Split the heaviest
    # region until n_shards exist.
    regions: list[tuple[tuple[float, float, float, float], np.ndarray]] = [
        (tuple(float(v) for v in bounds), np.arange(centers.shape[0]))
    ]
    while len(regions) < n_shards:
        weights = [int(counts[members].sum()) for __, members in regions]
        pick = int(np.argmax(weights))
        rect, members = regions.pop(pick)
        x_min, y_min, x_max, y_max = rect
        axis = 0 if (x_max - x_min) >= (y_max - y_min) else 1
        lo, hi = (x_min, x_max) if axis == 0 else (y_min, y_max)
        cut = _weighted_median(
            centers[members, axis], counts[members], lo, hi
        )
        if axis == 0:
            left_rect = (x_min, y_min, cut, y_max)
            right_rect = (cut, y_min, x_max, y_max)
        else:
            left_rect = (x_min, y_min, x_max, cut)
            right_rect = (x_min, cut, x_max, y_max)
        below = centers[members, axis] < cut
        regions.insert(pick, (right_rect, members[~below]))
        regions.insert(pick, (left_rect, members[below]))
    rects = np.array([rect for rect, __ in regions], dtype=float)
    weights = np.array(
        [int(counts[members].sum()) for __, members in regions], dtype=np.int64
    )
    return ShardPlan(rects=rects, bounds=tuple(float(v) for v in bounds), weights=weights)


def partition_blocks(
    snapshot: IndexSnapshot, plan: ShardPlan
) -> tuple[list[np.ndarray], list[tuple[float, float, float, float] | None]]:
    """Assign a canonical snapshot's blocks to the plan's shards.

    Each block goes to the shard containing its center (MINDIST
    fallback for centers outside the universe — same routing as
    queries).  Member lists are ascending canonical row indices, so
    :meth:`~repro.index.snapshot.IndexSnapshot.extract` yields each
    shard a canonical sub-snapshot whose position tie-breaks are the
    global contract's restriction to that shard.

    Returns:
        ``(members, hulls)`` — per shard, the ascending member row
        indices and the union bounding rect of the member block rects
        (``None`` for a shard that owns no blocks): no row of the shard
        is nearer than the hull's MINDIST.
    """
    if snapshot.layout != "canonical":
        raise ValueError("partition_blocks needs a canonical snapshot")
    ids = plan.assign(snapshot.centers)
    members: list[np.ndarray] = []
    hulls: list[tuple[float, float, float, float] | None] = []
    for sid in range(plan.n_shards):
        rows = np.flatnonzero(ids == sid).astype(np.int64)
        members.append(rows)
        if rows.size == 0:
            hulls.append(None)
            continue
        rects = snapshot.rects[rows]
        hulls.append(
            (
                float(rects[:, 0].min()),
                float(rects[:, 1].min()),
                float(rects[:, 2].max()),
                float(rects[:, 3].max()),
            )
        )
    return members, hulls


def _weighted_median(values: np.ndarray, weights: np.ndarray, lo: float, hi: float) -> float:
    """A split coordinate strictly inside ``(lo, hi)``.

    The count-weighted median of ``values``, nudged to the interval
    midpoint when the median would produce a zero-width region (all
    mass at one edge, or no blocks at all).
    """
    mid = (lo + hi) / 2.0
    if values.shape[0] == 0:
        return mid
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    cum = np.cumsum(weights[order].astype(float))
    total = cum[-1]
    if total <= 0:
        return mid
    cut = float(sorted_vals[int(np.searchsorted(cum, total / 2.0))])
    if not lo < cut < hi:
        return mid
    return cut
