"""The cost-based planner: QEP enumeration and arbitration.

For each query shape the planner enumerates the applicable physical
operators, costs each with the statistics manager's estimators, and
returns the cheapest together with a :class:`PlanExplanation` that
records every alternative — the reproduction's equivalent of
``EXPLAIN``.

Cost model (block scans, per the paper):

* ``filter-then-knn`` — the relation's block count (full scan).
* ``incremental-knn`` — the Staircase estimate at the *effective*
  ``k' = ceil(k / σ)`` where σ combines the relational predicate's
  sampled selectivity and the spatial region's estimated selectivity
  (independence assumed, the textbook simplification).
* ``locality-join`` — the pair's join-catalog estimate at ``k'``.
* ``per-point-selects`` — outer row count times the mean Staircase
  estimate over a spatial sample of outer rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

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
from repro.geometry.backends import active_backend
from repro.optimizer.selection import LinkDecision, arbitrate

#: Number of outer rows sampled when costing per-point-selects.
SELECT_COST_SAMPLE = 32


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
        cache_hit: Whether the select-cost estimate came from the
            statistics manager's estimate cache — ``None`` when the
            cache is disabled (the default) or the plan needed no
            select estimate.
        kernel_backend: Name of the geometry kernel backend active when
            the plan was costed (``"numpy"`` or ``"numba"``; "" when
            the plan needed no kernel work).
        decided_by: The rule that decided — ``"cost-based"`` or
            ``"pinned-override"`` ("" for plans never arbitrated, e.g.
            degraded shard placeholders).
        trail: The arbitration's
            :class:`~repro.optimizer.selection.LinkDecision` record (one
            entry, timed) — why the plan won, not just its cost.
    """

    chosen: str
    alternatives: dict[str, float] = field(default_factory=dict)
    effective_k: int = 0
    selectivity: float = 1.0
    estimator_tier: str = ""
    degraded: bool = False
    notes: list[str] = field(default_factory=list)
    preprocessing: dict[str, float] = field(default_factory=dict)
    cache_hit: bool | None = None
    kernel_backend: str = ""
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
        if self.cache_hit is not None:
            lines.append(f"  estimate cache: {'hit' if self.cache_hit else 'miss'}")
        if self.kernel_backend:
            lines.append(f"  kernel backend: {self.kernel_backend}")
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

    Raw estimators (``fallback=False``) have no outcome (``None``) and
    leave the explanation untouched.
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


def _decide(
    stats: StatisticsManager,
    explanation: PlanExplanation,
    kind: str,
    table: str,
    tie_order: tuple[str, ...],
) -> None:
    """Arbitrate the explanation's alternatives and record the verdict.

    Every plan decision — including single-candidate range scans and
    empty-table trivia — goes through here, so ``decided_by`` and the
    one-record ``trail`` are uniformly present on every explanation.
    """
    tick = time.perf_counter()
    record = arbitrate(
        kind, table, explanation.alternatives, tie_order, stats.pinned_operators
    )
    record = replace(record, elapsed_us=(time.perf_counter() - tick) * 1e6)
    explanation.chosen = record.operator
    explanation.decided_by = record.link
    explanation.trail = [record]


def plan_select(
    stats: StatisticsManager, query: KnnSelectQuery
) -> tuple[object, PlanExplanation]:
    """Choose among the k-NN-Select QEPs of Section 1: the batch of one."""
    return plan_select_batch(stats, [query])[0]


def _plan_trivial_select(
    stats: StatisticsManager, query: KnnSelectQuery
) -> PlanExplanation:
    """The empty-table select plan: a zero-cost trivial scan.

    Still arbitrated (single candidate) so the decision trail is
    uniformly present.
    """
    explanation = PlanExplanation(
        chosen="",
        alternatives={FilterThenKnnOperator.name: 0.0},
        effective_k=query.k,
        selectivity=1.0,
    )
    _decide(stats, explanation, "select", query.table, (FilterThenKnnOperator.name,))
    return explanation


def assemble_select_explanation(
    stats: StatisticsManager,
    table,
    query: KnnSelectQuery,
    sigma: float,
    effective_k: int,
    cost_incremental: float,
    *,
    estimate_tier: str = "",
    estimate_degraded: bool = False,
    cache_hit: bool | None = None,
) -> PlanExplanation:
    """Build the alternatives table and arbitrate one select plan.

    The one place a k-NN-Select's candidates, full-scan clamp and tie
    order are spelled: everything after the browsing estimate is in
    hand.  :func:`plan_select_batch` calls it with the statistics
    manager's estimate; the data-shard serving coordinator calls it
    with the cross-shard merged estimate, the worst answering tier and
    the merged degraded flag.  :func:`~repro.optimizer.selection.arbitrate`
    decides over the numbers, and its verdict, trail, and provenance land
    on the explanation; a caller with a degraded estimate appends its own
    note saying why.

    Args:
        stats: The statistics manager whose operator pins apply.
        table: The queried (non-empty) relation.
        query: The select.
        sigma: Combined predicate × region selectivity.
        effective_k: ``ceil(k / sigma)``, what the estimate was taken at.
        cost_incremental: Estimated browsing cost in blocks.
        estimate_tier: Tier that produced ``cost_incremental``
            (``"estimate-cache"`` for a cache hit, ``""`` for a raw
            estimator).
        estimate_degraded: Whether a non-primary tier answered.
        cache_hit: Estimate-cache outcome (``None`` when disabled).
    """
    cost_filter = float(table.index.num_blocks)
    # Browsing can never scan more than every block once.
    cost_incremental = min(cost_incremental, cost_filter)
    alternatives: dict[str, float] = {
        FilterThenKnnOperator.name: cost_filter,
        IncrementalKnnOperator.name: cost_incremental,
    }
    # Ties resolve toward the earlier entry; the full scan's sequential
    # pattern beats random-access browsing at equal block counts, and
    # the pruned browser dominates the plain one whenever applicable.
    order = [FilterThenKnnOperator.name, IncrementalKnnOperator.name]
    if query.region is not None:
        # Region pruning bounds browsing by the blocks inside the region.
        region_blocks = float(table.snapshot.overlapping(query.region).shape[0])
        alternatives[RegionPrunedKnnOperator.name] = min(
            cost_incremental, region_blocks
        )
        order.insert(1, RegionPrunedKnnOperator.name)
    explanation = PlanExplanation(
        chosen="",
        alternatives=alternatives,
        effective_k=effective_k,
        selectivity=sigma,
        estimator_tier=estimate_tier,
        degraded=estimate_degraded,
        cache_hit=cache_hit,
        kernel_backend=active_backend(),
    )
    _decide(stats, explanation, "select", query.table, tuple(order))
    return explanation


def _select_operator_for(chosen: str, table, query: KnnSelectQuery):
    """Instantiate the physical operator the arbitration picked."""
    if chosen == RegionPrunedKnnOperator.name:
        return RegionPrunedKnnOperator(table, query)
    if chosen == IncrementalKnnOperator.name:
        return IncrementalKnnOperator(table, query)
    return FilterThenKnnOperator(table, query)


def plan_select_batch(
    stats: StatisticsManager, queries: list[KnnSelectQuery]
) -> list[tuple[object, PlanExplanation]]:
    """Plan a batch of k-NN selects: the only select planner.

    The per-call statistics work is paid once per *table*: one
    estimator resolution, one snapshot access, and one batched
    ``estimate_batch`` call covering every query against that table
    (routed through the estimate cache when enabled, which replays a
    one-by-one loop's hit/miss sequence).  A single query is the batch
    of one (:func:`plan_select`).

    Args:
        stats: The statistics manager.
        queries: The batch, in serving order (any mix of tables).

    Returns:
        ``(operator, explanation)`` pairs aligned with ``queries``.
    """
    plans: list[tuple[object, PlanExplanation] | None] = [None] * len(queries)
    by_table: dict[str, list[int]] = {}
    for i, query in enumerate(queries):
        by_table.setdefault(query.table, []).append(i)
    for name, indices in by_table.items():
        table = stats.table(name)
        if table.n_rows == 0:
            # Nothing to scan: either plan is a no-op; pick the trivial scan.
            for i in indices:
                plans[i] = (
                    FilterThenKnnOperator(table, queries[i]),
                    _plan_trivial_select(stats, queries[i]),
                )
            continue
        sigmas = np.empty(len(indices), dtype=float)
        effective_ks = np.empty(len(indices), dtype=np.int64)
        for j, i in enumerate(indices):
            query = queries[i]
            sigma = stats.predicate_selectivity(name, query.predicate)
            sigma *= stats.region_selectivity(name, query.region)
            sigma = min(max(sigma, 1.0 / max(table.n_rows, 1)), 1.0)
            sigmas[j] = sigma
            effective_ks[j] = int(math.ceil(query.k / sigma))
        pts = np.array(
            [[queries[i].query.x, queries[i].query.y] for i in indices], dtype=float
        )
        estimator = stats.select_estimator_for_planning(name)
        costs, hits, outcomes = stats.estimate_select_costs_batch(
            name, estimator, pts, effective_ks
        )
        preprocessing: dict[str, float] = {}
        prep_stats = getattr(estimator, "preprocessing_stats", None)
        if prep_stats is not None:
            preprocessing = prep_stats.as_dict()
        for j, i in enumerate(indices):
            query = queries[i]
            hit = bool(hits[j]) if hits is not None else None
            # Shared provenance: per-query tier labels backed by the
            # one batch-call attempt record.
            if hit:
                # The estimator never ran; label the answer's real source.
                tier, degraded = "estimate-cache", False
            elif outcomes[j] is not None:
                tier, degraded = outcomes[j].tier, outcomes[j].degraded
            else:
                tier, degraded = "", False
            explanation = assemble_select_explanation(
                stats,
                table,
                query,
                float(sigmas[j]),
                int(effective_ks[j]),
                float(costs[j]),
                estimate_tier=tier,
                estimate_degraded=degraded,
                cache_hit=hit,
            )
            if degraded:
                explanation.notes.append(outcomes[j].describe())
            if not hit:
                explanation.preprocessing.update(preprocessing)
            plans[i] = (
                _select_operator_for(explanation.chosen, table, query),
                explanation,
            )
    return plans  # type: ignore[return-value]


def plan_range(
    stats: StatisticsManager, query: RangeQuery
) -> tuple[IndexRangeScanOperator, PlanExplanation]:
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
    explanation = PlanExplanation(
        chosen="",
        alternatives={IndexRangeScanOperator.name: cost},
        effective_k=0,
        selectivity=sigma,
    )
    _decide(stats, explanation, "range", query.table, (IndexRangeScanOperator.name,))
    return IndexRangeScanOperator(table, query), explanation


def per_point_selects_cost(
    select_estimator, outer_points: np.ndarray, effective_k: int
) -> float:
    """Estimated blocks of running a join as one select per outer row.

    The outer row count times the mean select estimate over a fixed
    spatial sample of :data:`SELECT_COST_SAMPLE` outer rows (drawn with
    replacement from a seeded generator, so the cost is a pure function
    of the inputs), estimated as one batch.

    Args:
        select_estimator: The inner relation's select-cost estimator.
        outer_points: The ``(n, 2)`` outer relation, ``n >= 1``.
        effective_k: Neighbors each select browses for.
    """
    n = outer_points.shape[0]
    sample = np.random.default_rng(0).integers(0, n, size=min(SELECT_COST_SAMPLE, n))
    per_select = select_estimator.estimate_batch(outer_points[sample], effective_k)
    return float(np.mean(per_select)) * n


def plan_join(
    stats: StatisticsManager, query: KnnJoinQuery
) -> tuple[LocalityJoinOperator | PerPointSelectsOperator, PlanExplanation]:
    """Choose between the block-by-block join and per-point selects."""
    outer = stats.table(query.outer)
    inner = stats.table(query.inner)
    if outer.n_rows == 0 or inner.n_rows == 0:
        # Degenerate join: zero work either way.
        explanation = PlanExplanation(
            chosen="",
            alternatives={PerPointSelectsOperator.name: 0.0},
            effective_k=query.k,
            selectivity=1.0,
        )
        _decide(stats, explanation, "join", query.outer, (PerPointSelectsOperator.name,))
        return PerPointSelectsOperator(outer, inner, query), explanation
    sigma = stats.predicate_selectivity(query.inner, query.inner_predicate)
    sigma = min(max(sigma, 1.0 / max(inner.n_rows, 1)), 1.0)
    effective_k = int(math.ceil(query.k / sigma))

    join_estimator = stats.join_estimator_for_planning(query.outer, query.inner)
    try:
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

    join_outcome = getattr(join_estimator, "last_outcome", None)

    select_estimator = stats.select_estimator_for_planning(query.inner)
    cost_selects = per_point_selects_cost(select_estimator, outer.points, effective_k)
    # The sample's last row speaks for the batch, as the last of a run
    # of scalar estimates would.
    sampled = getattr(select_estimator, "last_batch_outcome", None)
    select_outcome = (
        None if sampled is None else sampled.outcome_for(len(sampled.tiers) - 1)
    )

    explanation = PlanExplanation(
        chosen="",
        alternatives={
            LocalityJoinOperator.name: cost_join,
            PerPointSelectsOperator.name: cost_selects,
        },
        effective_k=effective_k,
        selectivity=sigma,
    )
    _decide(
        stats,
        explanation,
        "join",
        query.outer,
        (LocalityJoinOperator.name, PerPointSelectsOperator.name),
    )
    if explanation.chosen == LocalityJoinOperator.name:
        _record_provenance(explanation, join_outcome)
        _record_preprocessing(explanation, join_estimator)
        return LocalityJoinOperator(outer, inner, query, selectivity=sigma), explanation
    _record_provenance(explanation, select_outcome)
    _record_preprocessing(explanation, select_estimator)
    return PerPointSelectsOperator(outer, inner, query), explanation
