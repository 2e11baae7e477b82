"""The cost-based planner: QEP enumeration and arbitration.

For each query shape the planner enumerates the applicable physical
operators, costs each with the statistics manager's estimators, and
returns the cheapest together with a :class:`PlanExplanation` that
records every alternative — the reproduction's equivalent of
``EXPLAIN``.

Cost model (block scans, per the paper):

* ``filter-then-knn`` — the relation's block count (full scan).
* ``incremental-knn`` — the Staircase estimate at the *effective*
  ``k' = max(k, ceil(k / σ))`` where σ combines the relational
  predicate's sampled selectivity and the spatial region's estimated
  selectivity (independence assumed, the textbook simplification);
  ``k' = k`` exactly when σ = 1, and ``k'`` saturates at ``2**63 - 1``.
* ``locality-join`` — the pair's join-catalog estimate at ``k'``.
* ``per-point-selects`` — outer row count times the mean Staircase
  estimate over a spatial sample of outer rows.

Planning builds explanations only; :func:`physical_operator` turns an
explanation into the operator that runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from repro.catalog import CatalogLookupError
from repro.engine.physical import (
    FilterThenKnnOperator,
    IncrementalKnnOperator,
    IndexRangeScanOperator,
    LocalityJoinOperator,
    PerPointSelectsOperator,
    RegionPrunedKnnOperator,
)
from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.engine.stats import StatisticsManager
from repro.optimizer.selection import LinkDecision, arbitrate, arbitrate_batch
from repro.resilience.fallback import FallbackBatchOutcome, FallbackJoinEstimator, select_costs
from repro.resilience.guards import K_CEILING

#: Number of outer rows sampled when costing per-point-selects.
SELECT_COST_SAMPLE = 32

#: A select's candidate columns, in tie order: the full scan's
#: sequential pattern beats random-access browsing at equal block
#: counts, and the pruned browser dominates the plain one whenever
#: applicable.
SELECT_TIE_ORDER = (
    FilterThenKnnOperator.name,
    RegionPrunedKnnOperator.name,
    IncrementalKnnOperator.name,
)

_SELECT_OPERATORS = {
    operator.name: operator
    for operator in (FilterThenKnnOperator, IncrementalKnnOperator, RegionPrunedKnnOperator)
}


@dataclass
class PlanExplanation:
    """Why the planner chose what it chose.

    Attributes:
        chosen: Name of the selected operator.
        alternatives: ``{operator name: estimated block cost}``.
        effective_k: The ``k'`` the costs were computed at.
        selectivity: The combined selectivity that produced ``k'``.
        estimator_tier: Which fallback tier produced the cost estimate
            ("" when costing needed no estimator, e.g. range scans).
        degraded: Whether a non-primary tier (or the guaranteed bound)
            had to answer.
        notes: Planning diagnostics — input-guard observations and
            fallback degradation provenance.
        preprocessing: Flattened preprocessing instrumentation of the
            costing estimator (:meth:`repro.perf.PreprocessingStats.as_dict`
            — worker count, anchor dedup counters, per-phase seconds);
            empty when the estimator exposes none.
        decided_by: The rule that decided — ``"cost-based"`` or
            ``"pinned-override"`` ("" for plans never arbitrated, e.g.
            degraded shard placeholders).
        trail: The arbitration's
            :class:`~repro.optimizer.selection.LinkDecision` record (one
            entry; its ``elapsed_us`` is this plan's share of its
            group's arbitration) — why the plan won, not just its cost.
    """

    chosen: str
    alternatives: dict[str, float] = field(default_factory=dict)
    effective_k: int = 0
    selectivity: float = 1.0
    estimator_tier: str = ""
    degraded: bool = False
    notes: list[str] = field(default_factory=list)
    preprocessing: dict[str, float] = field(default_factory=dict)
    decided_by: str = ""
    trail: list[LinkDecision] = field(default_factory=list)

    def cost_of(self, operator: str) -> float:
        """Estimated cost of one alternative.

        Raises:
            KeyError: If the operator was not considered.
        """
        return self.alternatives[operator]

    def __str__(self) -> str:
        lines = [f"chosen: {self.chosen} (k'={self.effective_k}, σ={self.selectivity:.3g})"]
        for name, cost in sorted(self.alternatives.items(), key=lambda kv: kv[1]):
            marker = "->" if name == self.chosen else "  "
            lines.append(f"  {marker} {name}: {cost:.1f} blocks")
        if self.decided_by:
            lines.append(f"  decided by: {self.decided_by}")
        for decision in self.trail:
            lines.append(f"  link {decision.describe()}")
        if self.estimator_tier:
            status = "degraded" if self.degraded else "primary"
            lines.append(f"  estimator: {self.estimator_tier} ({status})")
        if self.preprocessing:
            wall = self.preprocessing.get("wall_seconds", 0.0)
            deduped = int(self.preprocessing.get("anchors_deduped", 0))
            workers = int(self.preprocessing.get("workers", 0))
            lines.append(
                f"  preprocessing: {wall:.3f}s"
                f" (workers={workers}, anchors deduped={deduped})"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)


def _record_provenance(explanation: PlanExplanation, outcome) -> None:
    """Copy a fallback chain's outcome onto the explanation.

    A raw join estimator (``fallback=False``) has no outcome (``None``);
    a raw select estimator's names no tier (``""``) and never degrades.
    Either leaves the explanation as it was.
    """
    if outcome is None:
        return
    explanation.estimator_tier = outcome.tier
    explanation.degraded = explanation.degraded or outcome.degraded
    if outcome.degraded:
        explanation.notes.append(outcome.describe())


def _record_preprocessing(explanation: PlanExplanation, estimator) -> None:
    """Copy the estimator's preprocessing instrumentation, if any.

    Works for raw estimators and fallback chains alike (the chain
    merges across its built tiers); estimators without stats leave the
    explanation's ``preprocessing`` dict empty.
    """
    stats = getattr(estimator, "preprocessing_stats", None)
    if stats is None:
        return
    explanation.preprocessing.update(stats.as_dict())


def _arbitrated(
    stats: StatisticsManager,
    kind: str,
    table: str,
    alternatives: dict[str, float],
    tie_order: tuple[str, ...],
    **fields,
) -> PlanExplanation:
    """One plan's explanation, decided by :func:`arbitrate` (the batch of one).

    Every single-plan decision — range scans, joins, degenerate joins —
    goes through here, so ``decided_by`` and the one-record ``trail``
    are uniformly present.
    """
    record = arbitrate(kind, table, alternatives, tie_order, stats.pinned_operators)
    return PlanExplanation(
        chosen=record.operator,
        alternatives=alternatives,
        decided_by=record.link,
        trail=[record],
        **fields,
    )


def _effective_ks(ks, sigmas: np.ndarray | None) -> np.ndarray:
    """k′ per query: ``max(k, ceil(k / σ))``, saturated at ``2**63 - 1``.

    Exactly ``k`` where σ = 1 (or ``sigmas`` is ``None``) — no float
    round trip, so a k past 2**53 plans at itself — and never below
    ``k`` elsewhere.  The ceiling is taken in float64 and saturated
    before the int64 cast, which would otherwise wrap.
    """
    out = np.array(ks, dtype=np.int64)
    if sigmas is None:
        return out
    scaled = np.flatnonzero(sigmas < 1.0)
    if scaled.size:
        raw = np.ceil(out[scaled] / sigmas[scaled])
        fits = raw < 2.0**63
        widened = np.full(scaled.size, K_CEILING, dtype=np.int64)
        widened[fits] = raw[fits]
        out[scaled] = np.maximum(out[scaled], widened)
    return out


def physical_operator(stats: StatisticsManager, query, explanation: PlanExplanation):
    """The physical operator that runs ``query`` the way ``explanation`` chose."""
    if isinstance(query, KnnJoinQuery):
        outer, inner = stats.table(query.outer), stats.table(query.inner)
        if explanation.chosen == LocalityJoinOperator.name:
            return LocalityJoinOperator(
                outer, inner, query, selectivity=explanation.selectivity
            )
        return PerPointSelectsOperator(outer, inner, query)
    table = stats.table(query.table)
    if isinstance(query, RangeQuery):
        return IndexRangeScanOperator(table, query)
    return _SELECT_OPERATORS[explanation.chosen](table, query)


class SelectGroup(NamedTuple):
    """One table's selects: batch positions, queries, ``(m, 2)`` focal
    points and ks as carried — materialized once for guard and planner.
    ``queries`` is ``None`` for selects known to carry no predicate and
    no region (the serving tier's columns)."""

    positions: list[int]
    queries: list[KnnSelectQuery] | None
    points: np.ndarray
    ks: list[int]


def select_groups(queries: list) -> tuple[dict[str, SelectGroup], list[int]]:
    """The batch's k-NN selects by table, in order of first appearance,
    and the positions of every other query."""
    positions = [i for i, query in enumerate(queries) if isinstance(query, KnnSelectQuery)]
    others = [] if len(positions) == len(queries) else [
        i for i, query in enumerate(queries) if not isinstance(query, KnnSelectQuery)
    ]
    selects = [queries[i] for i in positions]
    tables = [query.table for query in selects]
    names = dict.fromkeys(tables)
    groups = {}
    for name in names:
        at, group = positions, selects
        if len(names) > 1:
            at = [i for i, table in zip(positions, tables) if table == name]
            group = [queries[i] for i in at]
        focal = [query.query for query in group]
        points = np.empty((len(group), 2))
        points[:, 0] = [point.x for point in focal]
        points[:, 1] = [point.y for point in focal]
        groups[name] = SelectGroup(at, group, points, [query.k for query in group])
    return groups, others


def explain_select_batch(
    stats: StatisticsManager, queries: list[KnnSelectQuery]
) -> list[PlanExplanation]:
    """Plan a batch of k-NN selects: the only select planner.

    Each table's group is planned as arrays: σ (computed only for rows
    with a predicate or a region), k′, one batched ``estimate_batch``
    call and one cost comparison — one
    :func:`~repro.optimizer.selection.arbitrate_batch` over the ``(n, 3)``
    cost matrix, whose candidate set, full-scan clamp and tie order are
    spelled only here.  Per query, Python builds only the explanation.
    A single query is the batch of one; the sharded serving coordinator
    plans each chunk through here too.

    Args:
        stats: The statistics manager.
        queries: The batch, in serving order (any mix of tables).

    Returns:
        Explanations aligned with ``queries``.
    """
    return explain_select_groups(stats, select_groups(queries)[0], len(queries))


def explain_select_groups(
    stats: StatisticsManager, groups: dict[str, SelectGroup], n: int
) -> list[PlanExplanation | None]:
    """:func:`explain_select_batch` of a batch of ``n`` in :func:`select_groups`."""
    explanations: list[PlanExplanation | None] = [None] * n
    for name, group in groups.items():
        for i, explanation in zip(group.positions, _explain_select_group(stats, name, group)):
            explanations[i] = explanation
    return explanations


def _explain_select_group(
    stats: StatisticsManager, name: str, group: SelectGroup
) -> list[PlanExplanation]:
    """Plan every select of one table."""
    table = stats.table(name)
    __, queries, points, ks = group
    n = len(ks)
    if table.n_rows == 0:
        # Nothing to scan: either plan is a no-op; the trivial scan is
        # the one candidate (still arbitrated, so pins are noted).
        decisions = arbitrate_batch(
            "select",
            name,
            np.zeros((n, 1)),
            (FilterThenKnnOperator.name,),
            stats.pinned_operators,
        )
        return [
            PlanExplanation(
                chosen=record.operator,
                alternatives={FilterThenKnnOperator.name: 0.0},
                effective_k=k,
                decided_by=record.link,
                trail=[record],
            )
            for k, record in zip(ks, decisions)
        ]
    sigmas = np.ones(n)
    filtered = False
    with_region: list[int] = []
    for j, query in enumerate(queries or ()):
        if query.predicate is not None or query.region is not None:
            sigma = stats.predicate_selectivity(name, query.predicate)
            sigma *= stats.region_selectivity(name, query.region)
            sigmas[j] = min(max(sigma, 1.0 / table.n_rows), 1.0)
            filtered = True
            if query.region is not None:
                with_region.append(j)
    effective_ks = _effective_ks(ks, sigmas if filtered else None)
    estimator = stats.select_estimator_for_planning(name)
    costs, provenance = stats.estimate_select_costs_batch(name, estimator, points, effective_ks)
    prep_stats = getattr(estimator, "preprocessing_stats", None)
    preprocessing = {} if prep_stats is None else prep_stats.as_dict()
    cost_filter = float(table.index.num_blocks)
    # Columns in SELECT_TIE_ORDER; a row without a region has no
    # region-pruned candidate (+inf).
    matrix = np.empty((n, 3))
    matrix[:, 0] = cost_filter
    matrix[:, 1] = np.inf
    # Browsing can never scan more than every block once.
    incremental = np.minimum(costs, cost_filter, out=matrix[:, 2])
    for j in with_region:
        # Region pruning bounds browsing by the blocks inside the region.
        region_blocks = float(table.snapshot.overlapping(queries[j].region).shape[0])
        matrix[j, 1] = min(incremental[j], region_blocks)
    decisions = arbitrate_batch("select", name, matrix, SELECT_TIE_ORDER, stats.pinned_operators)
    # One record per row, built positionally from the group's columns.
    filter_name, pruned_name, browse_name = SELECT_TIE_ORDER
    explanations = [
        PlanExplanation(
            record.operator,
            {filter_name: cost_filter, browse_name: browse} if pruned_cost == np.inf
            else {filter_name: cost_filter, browse_name: browse, pruned_name: pruned_cost},
            k, sigma, tier, is_degraded, [], preprocessing.copy(), record.link, [record],
        )
        for record, (__, pruned_cost, browse), k, sigma, tier, is_degraded in zip(
            decisions, matrix.tolist(), effective_ks.tolist(), sigmas.tolist(),
            provenance.tiers, provenance.degraded.tolist(),
        )
    ]
    for j in np.flatnonzero(provenance.degraded).tolist():
        explanations[j].notes.append(provenance.outcome_for(j).describe())
    return explanations


def explain_range(stats: StatisticsManager, query: RangeQuery) -> PlanExplanation:
    """Plan a range select (one QEP — its cost is fixed by the region).

    Included so ``EXPLAIN`` covers the range operator the paper
    contrasts against: the cost — the number of blocks overlapping the
    region — is known exactly from the Count-Index, no catalogs needed.
    """
    table = stats.table(query.table)
    if table.n_rows:
        overlapping = table.snapshot.overlapping(query.region)
        cost = float(overlapping.shape[0])
    else:
        cost = 0.0
    sigma = stats.predicate_selectivity(query.table, query.predicate)
    sigma *= stats.region_selectivity(query.table, query.region)
    return _arbitrated(
        stats,
        "range",
        query.table,
        {IndexRangeScanOperator.name: cost},
        (IndexRangeScanOperator.name,),
        effective_k=0,
        selectivity=sigma,
    )


def per_point_selects_cost(
    select_estimator, outer_points: np.ndarray, effective_k: int
) -> tuple[float, FallbackBatchOutcome]:
    """Estimated blocks of running a join as one select per outer row.

    The outer row count times the mean select estimate over a fixed
    spatial sample of :data:`SELECT_COST_SAMPLE` outer rows (drawn with
    replacement from a seeded generator, so the cost is a pure function
    of the inputs), estimated as one batch.

    Args:
        select_estimator: The inner relation's select-cost estimator.
        outer_points: The ``(n, 2)`` outer relation, ``n >= 1``.
        effective_k: Neighbors each select browses for.

    Returns:
        ``(cost, provenance)`` — the provenance of the sample's one
        batch estimate (see :func:`~repro.resilience.fallback.select_costs`).
    """
    n = outer_points.shape[0]
    per_select, provenance = select_costs(
        select_estimator, outer_points[_cost_sample(n)], effective_k
    )
    return float(np.mean(per_select)) * n, provenance


@lru_cache(maxsize=64)
def _cost_sample(n: int) -> np.ndarray:
    """The outer rows :func:`per_point_selects_cost` samples from ``n``.

    ``default_rng(0).integers(0, n, size=min(SELECT_COST_SAMPLE, n))``:
    it depends on ``n`` alone, so it is drawn once per row count (and
    handed out read-only).
    """
    sample = np.random.default_rng(0).integers(0, n, size=min(SELECT_COST_SAMPLE, n))
    sample.flags.writeable = False
    return sample


def explain_join(stats: StatisticsManager, query: KnnJoinQuery) -> PlanExplanation:
    """Choose between the block-by-block join and per-point selects."""
    outer = stats.table(query.outer)
    inner = stats.table(query.inner)
    if outer.n_rows == 0 or inner.n_rows == 0:
        # Degenerate join: zero work either way.
        return _arbitrated(
            stats,
            "join",
            query.outer,
            {PerPointSelectsOperator.name: 0.0},
            (PerPointSelectsOperator.name,),
            effective_k=query.k,
        )
    sigma = stats.predicate_selectivity(query.inner, query.inner_predicate)
    sigma = min(max(sigma, 1.0 / max(inner.n_rows, 1)), 1.0)
    effective_k = int(_effective_ks([query.k], np.array([sigma]))[0])

    join_estimator = stats.join_estimator_for_planning(query.outer, query.inner)
    join_outcome = None
    try:
        if isinstance(join_estimator, FallbackJoinEstimator):
            cost_join, join_outcome = join_estimator.walk(min(effective_k, stats.max_k))
        else:
            cost_join = join_estimator.estimate(min(effective_k, stats.max_k))
        if effective_k > stats.max_k:
            # Beyond the catalogs, scale by the worst case: every outer
            # block scans the whole inner relation.
            cost_join = min(
                cost_join * (effective_k / stats.max_k),
                float(outer.index.num_blocks * inner.index.num_blocks),
            )
    except CatalogLookupError:
        # Raw-estimator path only; the fallback chain absorbs lookup
        # failures internally and degrades instead.
        cost_join = float(outer.index.num_blocks * inner.index.num_blocks)

    select_estimator = stats.select_estimator_for_planning(query.inner)
    cost_selects, sampled = per_point_selects_cost(select_estimator, outer.points, effective_k)
    # The cost averages the whole sample: it is degraded if any row is.
    select_outcome = sampled.outcome_for_all()

    explanation = _arbitrated(
        stats,
        "join",
        query.outer,
        {
            LocalityJoinOperator.name: cost_join,
            PerPointSelectsOperator.name: cost_selects,
        },
        (LocalityJoinOperator.name, PerPointSelectsOperator.name),
        effective_k=effective_k,
        selectivity=sigma,
    )
    if explanation.chosen == LocalityJoinOperator.name:
        _record_provenance(explanation, join_outcome)
        _record_preprocessing(explanation, join_estimator)
    else:
        _record_provenance(explanation, select_outcome)
        _record_preprocessing(explanation, select_estimator)
    return explanation
