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
    explain_join,
    explain_range,
    explain_select_groups,
    physical_operator,
    select_groups,
)
from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.stats import StatisticsManager
from repro.engine.table import SpatialTable
from repro.resilience.errors import InvalidQueryError
from repro.resilience.guards import (
    guard_join_query,
    guard_range_query,
    guard_select_batch,
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

        k-NN selects are grouped by table and materialized once
        (:func:`~repro.engine.planner.select_groups`), then guarded and
        planned per table as arrays: one guard pass, one batched
        ``estimate_batch`` call and one cost comparison per table
        instead of per query.  No physical operator is built.
        """
        groups, others = select_groups(queries)
        notes = self._guard_batch(queries, groups, others)
        explanations = explain_select_groups(self.stats, groups, len(queries))
        for i in others:
            query = queries[i]
            if isinstance(query, KnnJoinQuery):
                explanations[i] = explain_join(self.stats, query)
            elif isinstance(query, RangeQuery):
                explanations[i] = explain_range(self.stats, query)
            else:
                raise TypeError(f"unsupported query type {type(query).__name__}")
        for i, row in notes.items():
            explanations[i].notes.extend(row)
        return explanations

    def execute_batch(
        self, queries: list[Query]
    ) -> list[tuple[ExecutionResult, PlanExplanation]]:
        """Plan and run a whole batch; returns per-query (result, plan).

        Planning is batched as in :meth:`explain_batch`; incremental
        k-NN selects against the same table then run as one
        :func:`~repro.engine.physical.execute_incremental_knn_batch`
        call (one array browse of the group), and every other plan runs
        its :func:`~repro.engine.planner.physical_operator`.

        Guard failures raise before anything executes.
        """
        explanations = self.explain_batch(queries)
        results: list[ExecutionResult | None] = [None] * len(queries)
        grouped: dict[str, list[int]] = {}
        for i, (query, explanation) in enumerate(zip(queries, explanations)):
            if explanation.chosen == IncrementalKnnOperator.name:
                grouped.setdefault(query.table, []).append(i)
            else:
                results[i] = physical_operator(self.stats, query, explanation).execute()
        for name, indices in grouped.items():
            table = self.stats.table(name)
            # The snapshot IncrementalKnnOperator.execute itself browses.
            outs = execute_incremental_knn_batch(
                table, [queries[i] for i in indices], table.snapshot
            )
            for i, out in zip(indices, outs):
                results[i] = out
        return list(zip(results, explanations))

    def _guard_batch(
        self, queries: list[Query], groups: dict, others: list[int]
    ) -> dict[int, list[str]]:
        """Boundary-validate a batch; returns ``{position: notes}``.

        Selects are guarded one table group at a time
        (:func:`~repro.resilience.guards.guard_select_batch`), the
        ``others`` — joins and ranges — one by one.  Unknown table names
        raise ``KeyError`` (the registration bug), unanswerable inputs
        raise :class:`~repro.resilience.errors.InvalidQueryError`, and
        suspicious ones raise only under ``strict`` — always at the
        first offender in batch order, as a loop over the queries would.
        """
        try:
            return self._guard_groups(queries, groups, others)
        except (InvalidQueryError, KeyError):
            # Groups are not in batch order: re-guard query by query so
            # the first offender is the one that raises.
            for query in queries:
                self._guard_groups([query], *select_groups([query]))
            raise

    def _guard_groups(
        self, queries: list[Query], groups: dict, others: list[int]
    ) -> dict[int, list[str]]:
        strict = self.stats.strict
        notes: dict[int, list[str]] = {}
        for i in others:
            query = queries[i]
            if isinstance(query, KnnJoinQuery):
                outer = self.stats.table(query.outer)
                inner = self.stats.table(query.inner)
                notes[i] = guard_join_query(query, outer.n_rows, inner.n_rows, strict)
            elif isinstance(query, RangeQuery):
                table = self.stats.table(query.table)
                notes[i] = guard_range_query(query, table.n_rows, strict)
        for name, group in groups.items():
            table = self.stats.table(name)
            flagged = guard_select_batch(
                group.points,
                group.ks,
                table.n_rows,
                table.index.bounds if table.n_rows else None,
                strict,
                [query.region for query in group.queries],
            )
            for j, row in flagged.items():
                notes[group.positions[j]] = row
        return notes

