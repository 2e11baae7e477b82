"""The per-query select planner, kept as the oracle of the array planner.

What ``SpatialEngine`` and ``engine/planner.py`` ran before a select batch
was planned as arrays: one scalar guard per query, then per table one
batched estimate, and per query the selectivity, k′, the alternatives
table with its full-scan clamp and region column, a ``min`` over the tie
order under the pin rule (the old ``arbitrate``) and one
``PlanExplanation`` with its provenance.  It is assembled from what the
planner still shares with it — the statistics manager's selectivities
and batched estimate, the scalar guards, the physical operator names —
and from nothing of ``guard_select_batch``, ``explain_select_batch``
or ``arbitrate_batch``.  Per-query
provenance is read off the estimator's own batch record, not off the
manager's merged one.

One rule differs from the code it was: k′ is ``k`` when σ = 1 and
``min(max(k, ceil(k / σ)), 2**63 - 1)`` otherwise, the rule the planner
now follows (the old ``ceil(k / σ)`` lost precision past 2**53 and
overflowed int64).

Joins and range selects are not part of the oracle: it plans them
with the engine planner's own :func:`explain_join` / :func:`explain_range`,
in the order the engine does (every select group first), so a mixed
batch sees the same estimator call sequence.
"""

from __future__ import annotations

import math

import numpy as np

from repro.engine.physical import (
    FilterThenKnnOperator,
    IncrementalKnnOperator,
    RegionPrunedKnnOperator,
)
from repro.engine.planner import PlanExplanation, explain_join, explain_range
from repro.engine.queries import KnnJoinQuery, KnnSelectQuery, RangeQuery
from repro.optimizer.selection import PIN_ANY_TABLE, LinkDecision
from repro.resilience.guards import (
    guard_join_query,
    guard_range_query,
    guard_select_query,
)

K_CEILING = 2**63 - 1


def reference_arbitrate(kind, table, candidates, tie_order, pins) -> LinkDecision:
    """One plan choice: an applicable pin, else ``min`` over the tie order."""
    order = [name for name in tie_order if name in candidates]
    best = min(order, key=candidates.__getitem__)
    pin = None
    if pins:
        pin = pins.get((table, kind)) or pins.get((PIN_ANY_TABLE, kind))
    if pin is not None and pin in candidates:
        return LinkDecision(
            "pinned-override",
            "pinned",
            pin,
            f"forced {pin!r} for ({table!r}, {kind!r}); cost arbitration "
            f"would have chosen {best!r} at {candidates[best]:.1f} blocks",
        )
    note = f"chose {best!r} at {candidates[best]:.1f} blocks"
    rejected = ", ".join(
        f"{name} at {candidates[name]:.1f}" for name in order if name != best
    )
    if rejected:
        note += f" (rejected {rejected})"
    if pin is not None:
        note += (
            f"; pin {pin!r} not applicable here "
            f"(candidates: {', '.join(sorted(candidates))})"
        )
    return LinkDecision("cost-based", "chose", best, note)


def reference_effective_k(k: int, sigma: float) -> int:
    """k′ in Python integers."""
    if sigma == 1.0:
        return k
    return min(max(k, math.ceil(k / sigma)), K_CEILING)


def _decide(stats, explanation, kind, table, tie_order) -> None:
    record = reference_arbitrate(
        kind, table, explanation.alternatives, tie_order, stats.pinned_operators
    )
    explanation.chosen = record.operator
    explanation.decided_by = record.link
    explanation.trail = [record]


def _assemble(stats, table, query, sigma, effective_k, cost, tier, degraded):
    cost_filter = float(table.index.num_blocks)
    cost = min(cost, cost_filter)
    alternatives = {
        FilterThenKnnOperator.name: cost_filter,
        IncrementalKnnOperator.name: cost,
    }
    order = [FilterThenKnnOperator.name, IncrementalKnnOperator.name]
    if query.region is not None:
        region_blocks = float(table.snapshot.overlapping(query.region).shape[0])
        alternatives[RegionPrunedKnnOperator.name] = min(cost, region_blocks)
        order.insert(1, RegionPrunedKnnOperator.name)
    explanation = PlanExplanation(
        chosen="",
        alternatives=alternatives,
        effective_k=effective_k,
        selectivity=sigma,
        estimator_tier=tier,
        degraded=degraded,
    )
    _decide(stats, explanation, "select", query.table, tuple(order))
    return explanation


def reference_explain_selects(stats, queries) -> list[PlanExplanation]:
    """Plan k-NN selects one explanation at a time (one estimate per table)."""
    plans: list[PlanExplanation | None] = [None] * len(queries)
    by_table: dict[str, list[int]] = {}
    for i, query in enumerate(queries):
        by_table.setdefault(query.table, []).append(i)
    for name, indices in by_table.items():
        table = stats.table(name)
        if table.n_rows == 0:
            for i in indices:
                explanation = PlanExplanation(
                    chosen="",
                    alternatives={FilterThenKnnOperator.name: 0.0},
                    effective_k=queries[i].k,
                    selectivity=1.0,
                )
                _decide(stats, explanation, "select", name, (FilterThenKnnOperator.name,))
                plans[i] = explanation
            continue
        sigmas, effective_ks = [], []
        for i in indices:
            query = queries[i]
            sigma = stats.predicate_selectivity(name, query.predicate)
            sigma *= stats.region_selectivity(name, query.region)
            sigma = min(max(sigma, 1.0 / max(table.n_rows, 1)), 1.0)
            sigmas.append(sigma)
            effective_ks.append(reference_effective_k(query.k, sigma))
        pts = np.array([[queries[i].query.x, queries[i].query.y] for i in indices], dtype=float)
        estimator = stats.select_estimator_for_planning(name)
        costs, answered = stats.estimate_select_costs_batch(
            name, estimator, pts, np.array(effective_ks, dtype=np.int64)
        )
        prep_stats = getattr(estimator, "preprocessing_stats", None)
        preprocessing = {} if prep_stats is None else prep_stats.as_dict()
        for j, i in enumerate(indices):
            outcome = answered.outcome_for(j)
            tier, degraded = outcome.tier, outcome.degraded
            explanation = _assemble(
                stats, table, queries[i], sigmas[j], effective_ks[j], float(costs[j]),
                tier, degraded,
            )
            if degraded:
                explanation.notes.append(outcome.describe())
            explanation.preprocessing.update(preprocessing)
            plans[i] = explanation
    return plans  # type: ignore[return-value]


def reference_guard(stats, query) -> list[str]:
    """The engine's old per-query boundary check."""
    strict = stats.strict
    if isinstance(query, KnnSelectQuery):
        table = stats.table(query.table)
        bounds = table.index.bounds if table.n_rows else None
        return guard_select_query(query, table.n_rows, bounds, strict)
    if isinstance(query, KnnJoinQuery):
        outer, inner = stats.table(query.outer), stats.table(query.inner)
        return guard_join_query(query, outer.n_rows, inner.n_rows, strict)
    table = stats.table(query.table)
    return guard_range_query(query, table.n_rows, strict)


def reference_explain_batch(stats, queries) -> list[PlanExplanation]:
    """``SpatialEngine.explain_batch`` as the per-query planner ran it."""
    notes = [reference_guard(stats, query) for query in queries]
    plans: list[PlanExplanation | None] = [None] * len(queries)
    selects = [i for i, query in enumerate(queries) if isinstance(query, KnnSelectQuery)]
    for i, plan in zip(selects, reference_explain_selects(stats, [queries[i] for i in selects])):
        plans[i] = plan
    for i, query in enumerate(queries):
        if isinstance(query, KnnJoinQuery):
            plans[i] = explain_join(stats, query)
        elif isinstance(query, RangeQuery):
            plans[i] = explain_range(stats, query)
    for plan, extra in zip(plans, notes):
        plan.notes.extend(extra)
    return plans  # type: ignore[return-value]
