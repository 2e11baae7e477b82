"""The engine façade: register tables, explain and execute queries.

Every query passes the :mod:`repro.resilience.guards` boundary checks
before planning: unanswerable inputs (non-finite focal points, bad
``k``) raise :class:`~repro.resilience.errors.InvalidQueryError`, while
suspicious-but-answerable ones become notes on the
:class:`~repro.engine.planner.PlanExplanation` — or errors too, when
the statistics manager is configured with ``strict=True``.
"""

from __future__ import annotations

from repro.engine.physical import (
    ExecutionResult,
    IncrementalKnnOperator,
    execute_incremental_knn_batch,
)
from repro.engine.planner import (
    PlanExplanation,
    plan_join,
    plan_range,
    plan_select_batch,
)
from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.resilience.guards import (
    guard_join_query,
    guard_range_query,
    guard_select_query,
)

Query = KnnSelectQuery | KnnJoinQuery | RangeQuery


class SpatialEngine:
    """A miniature spatial query engine with a cost-based optimizer.

    Usage::

        engine = SpatialEngine()
        engine.register(SpatialTable("restaurants", points, {"price": prices}))
        query = KnnSelectQuery("restaurants", Point(3, 4), k=10,
                               predicate=column("price") < 25)
        result, explanation = engine.execute(query)

    Args:
        stats: A preconfigured statistics manager (a default one is
            created when omitted).  Its configuration — estimators,
            fallback, staleness policy, operator pins — is the engine's.
    """

    def __init__(self, stats: StatisticsManager | None = None) -> None:
        self.stats = stats or StatisticsManager()

    def register(self, table: SpatialTable) -> None:
        """Register (or replace) a relation."""
        self.stats.register(table)

    def explain(self, query: Query) -> PlanExplanation:
        """Cost the query's QEP alternatives without executing: the batch of one."""
        return self.explain_batch([query])[0]

    def execute(self, query: Query) -> tuple[ExecutionResult, PlanExplanation]:
        """Plan and run the query: the batch of one."""
        return self.execute_batch([query])[0]

    # ------------------------------------------------------------------
    # Batched serving: plan and run many queries with amortized work
    # ------------------------------------------------------------------
    def explain_batch(self, queries: list[Query]) -> list[PlanExplanation]:
        """Cost a whole batch of queries without executing.

        k-NN selects are planned through
        :func:`~repro.engine.planner.plan_select_batch`: one estimator
        resolution, snapshot access, and batched ``estimate_batch`` call
        per table instead of per query.
        """
        return [explanation for __, explanation in self._plan_batch(queries)]

    def execute_batch(
        self, queries: list[Query]
    ) -> list[tuple[ExecutionResult, PlanExplanation]]:
        """Plan and run a whole batch; returns per-query (result, plan).

        Planning is batched as in :meth:`explain_batch`; incremental
        k-NN selects against the same table then run as one
        :func:`~repro.engine.physical.execute_incremental_knn_batch`
        call (one MINDIST pass per group of queries), and every other
        operator executes itself.

        Guard failures raise before anything executes.
        """
        return self._run(queries, self._plan_batch(queries))

    def _run(self, queries: list[Query], plans: list):
        """Execute planned queries; incremental selects batch per table."""
        results: list[ExecutionResult | None] = [None] * len(plans)
        grouped: dict[str, list[int]] = {}
        for i, (operator, __) in enumerate(plans):
            if isinstance(operator, IncrementalKnnOperator):
                grouped.setdefault(queries[i].table, []).append(i)
            else:
                results[i] = operator.execute()
        for name, indices in grouped.items():
            table = self.stats.table(name)
            # The snapshot IncrementalKnnOperator.execute itself browses.
            outs = execute_incremental_knn_batch(
                table, [queries[i] for i in indices], table.snapshot
            )
            for i, out in zip(indices, outs):
                results[i] = out
        return [
            (result, explanation)
            for result, (__, explanation) in zip(results, plans)
        ]

    def _plan_batch(self, queries: list[Query]):
        """Guard and plan a batch; k-NN selects go through the batch planner."""
        notes = [self._guard(query) for query in queries]
        plans: list[tuple[object, PlanExplanation] | None] = [None] * len(queries)
        select_indices = [
            i for i, query in enumerate(queries) if isinstance(query, KnnSelectQuery)
        ]
        if select_indices:
            batched = plan_select_batch(
                self.stats, [queries[i] for i in select_indices]
            )
            for i, plan in zip(select_indices, batched):
                plans[i] = plan
        for i, query in enumerate(queries):
            if plans[i] is not None:
                continue
            if isinstance(query, KnnJoinQuery):
                plans[i] = plan_join(self.stats, query)
            elif isinstance(query, RangeQuery):
                plans[i] = plan_range(self.stats, query)
            else:
                raise TypeError(f"unsupported query type {type(query).__name__}")
        for i, (__, explanation) in enumerate(plans):
            explanation.notes.extend(notes[i])
        return plans

    def _guard(self, query: Query) -> list[str]:
        """Boundary-validate a query; returns notes for the explanation.

        Unknown table names raise ``KeyError`` (the registration bug),
        unanswerable inputs raise
        :class:`~repro.resilience.errors.InvalidQueryError`, and
        suspicious ones raise only under ``strict``.
        """
        strict = self.stats.strict
        if isinstance(query, KnnSelectQuery):
            table = self.stats.table(query.table)
            bounds = table.index.bounds if table.n_rows else None
            return guard_select_query(query, table.n_rows, bounds, strict)
        if isinstance(query, KnnJoinQuery):
            outer = self.stats.table(query.outer)
            inner = self.stats.table(query.inner)
            return guard_join_query(query, outer.n_rows, inner.n_rows, strict)
        if isinstance(query, RangeQuery):
            table = self.stats.table(query.table)
            return guard_range_query(query, table.n_rows, strict)
        return []
