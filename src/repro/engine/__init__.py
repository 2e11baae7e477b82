"""A miniature spatial query engine.

The paper's premise is a spatial DBMS whose optimizer "arbitrates among
the various QEPs and picks the one with the least processing cost"
using the k-NN cost estimates.  This subpackage is that substrate, kept
deliberately small but complete end-to-end:

* :mod:`~repro.engine.table` — attribute-carrying spatial tables;
* :mod:`~repro.engine.expressions` — relational predicates with sampled
  selectivity estimation;
* :mod:`~repro.engine.queries` — declarative query specifications
  (k-NN-Select and k-NN-Join with relational/spatial predicates — the
  exact query shapes of the paper's Section 1);
* :mod:`~repro.engine.physical` — executable physical operators that
  count the blocks they scan;
* :mod:`~repro.engine.stats` — the statistics manager holding
  Count-Indexes and the paper's catalogs per table / table pair;
* :mod:`~repro.engine.planner` — QEP enumeration and cost-based choice;
* :mod:`~repro.engine.engine` — the façade: register tables, ``explain``
  and ``execute`` queries.
"""

from repro.engine.table import SpatialTable
from repro.engine.expressions import (
    And,
    AttributePredicate,
    Not,
    Or,
    Predicate,
    column,
)
from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.physical import ExecutionResult
from repro.engine.planner import PlanExplanation
from repro.engine.stats import StatisticsManager
from repro.engine.engine import SpatialEngine

__all__ = [
    "SpatialTable",
    "Predicate",
    "AttributePredicate",
    "And",
    "Or",
    "Not",
    "column",
    "KnnSelectQuery",
    "KnnJoinQuery",
    "RangeQuery",
    "ExecutionResult",
    "PlanExplanation",
    "StatisticsManager",
    "SpatialEngine",
]
