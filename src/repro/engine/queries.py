"""Declarative query specifications.

Two query shapes, matching the paper's Section 1 exactly:

* :class:`KnnSelectQuery` — "the k closest rows to a focal point",
  optionally restricted by a relational predicate and/or a spatial
  range ("the k-closest restaurants within my budget / within the
  downtown district").
* :class:`KnnJoinQuery` — "for each outer row, its k closest inner
  rows", optionally restricted by a predicate on the inner relation.

Specifications are plain data: the planner decides how to execute them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.expressions import Predicate
from repro.geometry import Point, Rect  # noqa: F401 (Rect used by RangeQuery)


@dataclass(frozen=True)
class KnnSelectQuery:
    """A k-NN-Select with optional relational and spatial filters.

    Attributes:
        table: Name of the queried relation.
        query: The focal point.
        k: Number of qualifying neighbors requested.
        predicate: Optional relational predicate the results must pass.
        region: Optional spatial range the results must fall in.
    """

    table: str
    query: Point
    k: int
    predicate: Predicate | None = None
    region: Rect | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class RangeQuery:
    """A spatial range select with an optional relational predicate.

    "Select the hotels within a certain downtown district" — the range
    counterpart the paper contrasts k-NN against (its cost is easy: the
    region is fixed).  Included so the engine covers the full predicate
    algebra of the Section 1 examples.

    Attributes:
        table: Name of the queried relation.
        region: The selection rectangle.
        predicate: Optional relational predicate.
    """

    table: str
    region: Rect
    predicate: Predicate | None = None


@dataclass(frozen=True)
class KnnJoinQuery:
    """A k-NN-Join with an optional predicate on the inner relation.

    Attributes:
        outer: Name of the outer relation.
        inner: Name of the inner relation.
        k: Neighbors per outer row.
        inner_predicate: Optional predicate qualifying inner rows.
    """

    outer: str
    inner: str
    k: int
    inner_predicate: Predicate | None = None

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
