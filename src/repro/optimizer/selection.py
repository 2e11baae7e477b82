"""Composable physical-operator selection: the optimizer's decision chain.

The paper's cost estimates exist to drive *plan choice* — filter-then-kNN
versus incremental distance browsing, many independent selects versus
one shared k-NN-Join.  This module turns that arbitration into a
PostBOUND-style chain of :class:`PhysicalOperatorSelection` links:
each link receives the query, the candidate :class:`PlanAssignment` so
far, and a :class:`PlanningContext` (candidate operator costs, catalog
freshness, estimator provenance, cache statistics) and may refine or
overwrite the assignment before handing it to ``next_selection``.

Shipped links, in the default chain's order:

* :class:`FreshnessGuardSelection` — compares the catalog build
  generation against the table's ``data_generation`` (the PR 7
  staleness machinery) and demotes catalog-backed estimator tiers when
  they trail the index, instead of letting a
  :class:`~repro.resilience.errors.StaleCatalogError` crash planning;
* :class:`CostBasedSelection` — the arbiter: picks the candidate with
  the least estimated block cost, resolving ties toward the preference
  order;
* :class:`ConfidenceSelection` — inspects the estimate's fallback
  provenance and, when configured with a ``degraded_penalty``, deflates
  trust in degraded (non-primary-tier) estimates by re-arbitrating with
  the estimator-backed candidates inflated.

:class:`PinnedOverrideSelection` can be prepended to force per-table /
per-operator-kind choices for experiments and tests; later links keep a
pinned assignment.

Every link appends a :class:`LinkDecision` to the assignment's trail,
which the planner copies onto
:class:`~repro.engine.planner.PlanExplanation` — ``EXPLAIN`` then shows
*why* a plan won, not just its cost.

The chain is walked from one place, :mod:`repro.engine.planner` (the
serving coordinator arbitrates through the planner's select assembly),
plus the golden corpus of :mod:`repro.optimizer.regression`, which hands
it candidates costed on substrates the engine does not plan over.  The
default chain (:func:`default_selection_chain`) is plain cost
arbitration plus provenance notes; the golden plan-regression suite
(``tests/plan_regression/``, regenerated with
``python -m repro.optimizer.regression --update``) pins that contract.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping

# ---------------------------------------------------------------------------
# Operator-name vocabulary.
#
# Plain string constants rather than imports from repro.engine.physical:
# the statistics manager imports this module, so importing the engine
# here would be circular.  ``tests/test_selection_chain.py`` asserts
# these stay equal to the physical operators' ``name`` attributes.
# ---------------------------------------------------------------------------
FILTER_THEN_KNN = "filter-then-knn"
INCREMENTAL_KNN = "incremental-knn"
REGION_PRUNED_KNN = "region-pruned-knn"
INDEX_RANGE_SCAN = "index-range-scan"
LOCALITY_JOIN = "locality-join"
PER_POINT_SELECTS = "per-point-selects"
PER_QUERY_SELECTS = "per-query-selects"
SHARED_KNN_JOIN = "shared-knn-join"

#: Operators a pin may name, per query kind.
KNOWN_OPERATORS: dict[str, tuple[str, ...]] = {
    "select": (FILTER_THEN_KNN, INCREMENTAL_KNN, REGION_PRUNED_KNN),
    "join": (LOCALITY_JOIN, PER_POINT_SELECTS),
    "range": (INDEX_RANGE_SCAN,),
    "batch": (PER_QUERY_SELECTS, SHARED_KNN_JOIN),
}

#: Estimator tiers whose answers come from prebuilt catalogs — the ones
#: a freshness guard can meaningfully demote (catalog-free tiers read
#: the live snapshot and cannot go stale).
CATALOG_BACKED_TIERS = ("staircase", "catalog-merge", "virtual-grid")

#: Wildcard table name in pin specifications.
PIN_ANY_TABLE = "*"


@dataclass(frozen=True)
class LinkDecision:
    """One chain link's contribution to a plan choice.

    Attributes:
        link: The deciding link's name.
        action: What it did — ``"chose"`` (set the operator),
            ``"pinned"`` (forced it), ``"overrode"`` (replaced an
            earlier link's choice), ``"demoted"`` (reordered the
            estimator ranking), ``"kept"`` (examined and left the
            assignment alone), or ``"noted"`` (recorded an observation
            without touching the assignment).
        operator: The assignment's operator after this link ran
            (``None`` while undecided).
        note: Human-readable rationale, including rejected candidates
            and their costs where applicable.
        elapsed_us: Wall-clock the link's ``_apply_selection`` took,
            microseconds (stamped by the chain walk; 0.0 only if the
            clock could not resolve the call).
    """

    link: str
    action: str
    operator: str | None
    note: str = ""
    elapsed_us: float = 0.0

    def describe(self) -> str:
        """One line for ``EXPLAIN`` output."""
        line = f"{self.link} [{self.action}]: {self.note}" if self.note else (
            f"{self.link} [{self.action}]"
        )
        if self.elapsed_us > 0.0:
            line += f" ({self.elapsed_us:.1f} us)"
        return line


@dataclass
class PlanAssignment:
    """The evolving outcome of a chain walk.

    Links mutate this in place (and return it); the planner reads the
    final state into the :class:`~repro.engine.planner.PlanExplanation`.

    Attributes:
        operator: The chosen physical operator (``None`` until a link
            decides).
        decided_by: Name of the link whose decision stood.
        pinned: Set by :class:`PinnedOverrideSelection`; cost-based and
            confidence links keep a pinned operator.
        estimator_ranking: Estimator tiers in preference order, primary
            first.  Guards reorder it; the trailing entries are the
            demoted ones.
        demoted_tiers: Tiers a guard pushed to the back of the ranking.
        candidates: ``{operator: estimated block cost}`` as seen by the
            arbiter (filled by :class:`CostBasedSelection`).
        trail: Per-link :class:`LinkDecision` record, in chain order.
    """

    operator: str | None = None
    decided_by: str = ""
    pinned: bool = False
    estimator_ranking: tuple[str, ...] = ()
    demoted_tiers: tuple[str, ...] = ()
    candidates: dict[str, float] = field(default_factory=dict)
    trail: list[LinkDecision] = field(default_factory=list)

    def record(self, link: str, action: str, note: str = "") -> None:
        """Append one link's decision to the trail."""
        self.trail.append(LinkDecision(link, action, self.operator, note))


@dataclass
class PlanningContext:
    """Everything a selection link may consult, gathered by the planner.

    One context serves one query's chain walk.  Costs are precomputed by
    the planner — batched once per table on the
    :func:`~repro.engine.planner.plan_select_batch` path — so links
    arbitrate over numbers without re-triggering estimation.

    Attributes:
        kind: ``"select"``, ``"join"``, ``"range"``, or ``"batch"``
            (the golden corpus' many-selects-vs-one-join arbitration).
        table: Target relation name (the outer relation for joins).
        candidates: ``{operator: estimated block cost}``.
        tie_order: Candidate preference order; equal costs resolve
            toward the earlier entry.
        estimator_tiers: Available estimator tiers, primary first
            (empty when costing needed no estimator).
        estimate_operators: The candidates whose costs came from a cost
            estimator (as opposed to exact block counts) — the ones a
            confidence penalty applies to.
        estimate_tier: Tier that actually produced the estimate
            (``"estimate-cache"`` for cache hits; ``""`` when unknown).
        estimate_degraded: Whether a non-primary tier (or the
            guaranteed bound) answered.
        data_generation: The table index's current data generation.
        catalog_generation: Generation the table's select catalogs were
            built at (``None`` when no catalogs have been built — fresh
            ones would be built at estimate time).
        staleness_policy: The statistics manager's ``"rebuild"`` or
            ``"raise"`` policy.
        cache_stats: Estimate-cache counters (``None`` when disabled).
        cache_hit: Whether this query's estimate was a cache hit
            (``None`` when the cache is disabled or unused).
        inner: Join partner relation name (``None`` otherwise).
        effective_k: The k' the costs were computed at.
        selectivity: The combined selectivity that produced k'.
    """

    kind: str
    table: str
    candidates: dict[str, float]
    tie_order: tuple[str, ...]
    estimator_tiers: tuple[str, ...] = ()
    estimate_operators: tuple[str, ...] = ()
    estimate_tier: str = ""
    estimate_degraded: bool = False
    data_generation: int = 0
    catalog_generation: int | None = None
    staleness_policy: str = "rebuild"
    cache_stats: dict | None = None
    cache_hit: bool | None = None
    inner: str | None = None
    effective_k: int = 0
    selectivity: float = 1.0


class PhysicalOperatorSelection(abc.ABC):
    """One link in the operator-selection chain.

    Links compose with :meth:`chain_with`: the current link applies its
    selection first and transfers the assignment to ``next_selection``,
    which may refine or overwrite it (a pinned assignment is the one
    exception the shipped links honor).  Walking the chain is
    :meth:`select_physical_operators`; subclasses implement only
    :meth:`_apply_selection`.
    """

    #: Link name used in trails and ``decided_by``.
    name = "selection"

    def __init__(self) -> None:
        self.next_selection: PhysicalOperatorSelection | None = None

    def chain_with(self, next_link: "PhysicalOperatorSelection") -> "PhysicalOperatorSelection":
        """Append ``next_link`` at the end of this chain; returns the head.

        Raises:
            ValueError: If ``next_link`` is already part of this chain
                (a cycle would never terminate).
        """
        if any(link is next_link for link in self.links()):
            raise ValueError(
                f"link {next_link.name!r} is already part of this chain"
            )
        tail = self
        while tail.next_selection is not None:
            tail = tail.next_selection
        tail.next_selection = next_link
        return self

    def links(self) -> Iterator["PhysicalOperatorSelection"]:
        """Iterate the chain from this link to the tail."""
        link: PhysicalOperatorSelection | None = self
        while link is not None:
            yield link
            link = link.next_selection

    def describe(self) -> str:
        """The chain's link names, head to tail."""
        return " -> ".join(link.name for link in self.links())

    def select_physical_operators(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        """Apply this link's selection, then the rest of the chain.

        Args:
            query: The query specification (any of the engine's query
                dataclasses, or ``None`` for the golden corpus' matrix
                workloads).
            assignment: The assignment so far (mutated and returned).
            context: The planner-gathered facts for this query.

        Returns:
            The final assignment after every link has run.
        """
        trail_before = len(assignment.trail)
        tick = time.perf_counter()
        assignment = self._apply_selection(query, assignment, context)
        elapsed_us = (time.perf_counter() - tick) * 1e6
        # Stamp the records THIS link appended (recursion into the rest
        # of the chain happens below, so the slice is exactly ours).
        for i in range(trail_before, len(assignment.trail)):
            decision = assignment.trail[i]
            if decision.elapsed_us == 0.0:
                assignment.trail[i] = replace(decision, elapsed_us=elapsed_us)
        if self.next_selection is not None:
            assignment = self.next_selection.select_physical_operators(
                query, assignment, context
            )
        return assignment

    @abc.abstractmethod
    def _apply_selection(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        """Refine or overwrite the assignment (subclass hook)."""


class CostBasedSelection(PhysicalOperatorSelection):
    """The arbiter: pick the cheapest candidate, ties toward ``tie_order``.

    The candidate with the least estimated block cost wins, and equal
    costs resolve toward the earlier entry of the context's preference
    order (a full scan's sequential pattern beats random-access browsing
    at equal block counts; a region-pruned browser dominates the plain
    one).

    A pinned assignment is left standing — the candidates are still
    recorded so ``EXPLAIN`` can show what the pin rejected.
    """

    name = "cost-based"

    def _apply_selection(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        assignment.candidates = dict(context.candidates)
        order = [name for name in context.tie_order if name in context.candidates]
        if not order:
            raise ValueError(
                f"no candidates to arbitrate for kind {context.kind!r} "
                f"(tie_order {context.tie_order!r}, "
                f"candidates {sorted(context.candidates)!r})"
            )
        best = min(order, key=lambda name: (context.candidates[name], order.index(name)))
        if assignment.pinned:
            note = (
                f"kept pinned {assignment.operator!r}; cost arbitration "
                f"would have chosen {best!r} at "
                f"{context.candidates[best]:.1f} blocks"
            )
            assignment.record(self.name, "kept", note)
            return assignment
        assignment.operator = best
        assignment.decided_by = self.name
        rejected = ", ".join(
            f"{name} at {context.candidates[name]:.1f}"
            for name in order
            if name != best
        )
        note = f"chose {best!r} at {context.candidates[best]:.1f} blocks"
        if rejected:
            note += f" (rejected {rejected})"
        assignment.record(self.name, "chose", note)
        return assignment


class FreshnessGuardSelection(PhysicalOperatorSelection):
    """Demote estimator tiers whose catalogs trail the table's generation.

    Freshness is judged from plain integers — the catalog build
    generation versus the index's current ``data_generation`` (the PR 7
    staleness machinery) — never by resolving the estimator, so a stale
    catalog under the ``"raise"`` staleness policy demotes the
    catalog-backed tiers to the back of the assignment's ranking
    instead of crashing the chain with a
    :class:`~repro.resilience.errors.StaleCatalogError`.

    Policy semantics:

    * ``"rebuild"`` — staleness is transparent (the manager rebuilds on
      next use); the guard records the rebuild and demotes nothing.
    * ``"raise"`` — catalog-backed tiers cannot answer; the guard
      demotes them so downstream links (and the explanation) know the
      estimate comes from a catalog-free tier.
    """

    name = "freshness-guard"

    def _apply_selection(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        if not context.estimator_tiers:
            assignment.record(self.name, "noted", "no estimator involved")
            return assignment
        built = context.catalog_generation
        if built is None:
            assignment.record(
                self.name,
                "noted",
                "no catalogs built yet (a build would be fresh at "
                f"generation {context.data_generation})",
            )
            return assignment
        if built == context.data_generation:
            assignment.record(
                self.name, "noted", f"catalogs fresh at generation {built}"
            )
            return assignment
        if context.staleness_policy == "rebuild":
            assignment.record(
                self.name,
                "noted",
                f"catalogs built at generation {built} trail the index at "
                f"{context.data_generation}; rebuilt transparently "
                "(policy: rebuild)",
            )
            return assignment
        stale = tuple(
            tier
            for tier in assignment.estimator_ranking
            if tier in CATALOG_BACKED_TIERS
        )
        if not stale:
            assignment.record(
                self.name, "noted", "no catalog-backed tier to demote"
            )
            return assignment
        assignment.estimator_ranking = tuple(
            tier for tier in assignment.estimator_ranking if tier not in stale
        ) + stale
        assignment.demoted_tiers = assignment.demoted_tiers + stale
        assignment.record(
            self.name,
            "demoted",
            f"catalogs built at generation {built} trail the index at "
            f"{context.data_generation} (policy: raise); demoted "
            f"{', '.join(repr(t) for t in stale)} behind the catalog-free tiers",
        )
        return assignment


class ConfidenceSelection(PhysicalOperatorSelection):
    """Prefer primary-tier estimates over degraded or fallback ones.

    With the default ``degraded_penalty=1.0`` the link is a pure
    observer: it records the estimate's provenance (primary tier,
    degraded tier, cache hit) in the trail and changes nothing — the
    default chain stays bit-for-bit equal to the legacy planner.

    With ``degraded_penalty > 1`` a degraded estimate loses trust: the
    estimator-backed candidates are re-costed at ``cost * penalty`` and
    the arbitration re-run, so a plan whose victory rests on a
    guaranteed-bound or low-tier estimate can lose to one whose cost is
    known exactly (e.g. the full scan's block count).

    Args:
        degraded_penalty: Multiplier applied to estimator-backed
            candidate costs when the estimate is degraded (>= 1).

    Raises:
        ValueError: If ``degraded_penalty < 1``.
    """

    name = "confidence"

    def __init__(self, degraded_penalty: float = 1.0) -> None:
        super().__init__()
        if degraded_penalty < 1.0:
            raise ValueError(
                f"degraded_penalty must be >= 1, got {degraded_penalty}"
            )
        self.degraded_penalty = float(degraded_penalty)

    def _apply_selection(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        if context.cache_hit:
            assignment.record(
                self.name, "noted", "estimate served by the estimate cache"
            )
            return assignment
        if not context.estimate_tier:
            assignment.record(self.name, "noted", "no estimator provenance")
            return assignment
        if not context.estimate_degraded:
            assignment.record(
                self.name,
                "noted",
                f"primary tier {context.estimate_tier!r} answered",
            )
            return assignment
        if self.degraded_penalty == 1.0 or assignment.pinned:
            assignment.record(
                self.name,
                "kept",
                f"estimate degraded to tier {context.estimate_tier!r}; "
                "keeping the cost-based choice (penalty 1)",
            )
            return assignment
        inflated = {
            name: (
                cost * self.degraded_penalty
                if name in context.estimate_operators
                else cost
            )
            for name, cost in context.candidates.items()
        }
        order = [name for name in context.tie_order if name in inflated]
        best = min(order, key=lambda name: (inflated[name], order.index(name)))
        if best == assignment.operator:
            assignment.record(
                self.name,
                "kept",
                f"estimate degraded to tier {context.estimate_tier!r}; "
                f"choice survives a {self.degraded_penalty:g}x penalty",
            )
            return assignment
        previous = assignment.operator
        assignment.operator = best
        assignment.decided_by = self.name
        assignment.record(
            self.name,
            "overrode",
            f"estimate degraded to tier {context.estimate_tier!r}; "
            f"{previous!r} loses to {best!r} under a "
            f"{self.degraded_penalty:g}x penalty on estimator-backed costs",
        )
        return assignment


class PinnedOverrideSelection(PhysicalOperatorSelection):
    """Force per-table / per-kind operator choices (experiments, tests).

    Pins are a mapping from ``(table, kind)`` to an operator name;
    ``table`` may be :data:`PIN_ANY_TABLE` (``"*"``) to pin every
    relation's queries of that kind.  An exact table match wins over a
    wildcard.  A pin that names an operator the current query cannot
    use (e.g. ``region-pruned-knn`` for a query without a region) is
    recorded in the trail and skipped — the rest of the chain decides.

    Args:
        pins: ``{(table, kind): operator}`` — string keys of the form
            ``"table:kind"`` or ``"kind"`` (wildcard table) are also
            accepted, matching the CLI's ``--pin-operator`` syntax.

    Raises:
        ValueError: On an unknown kind or an operator the kind does not
            offer.
    """

    name = "pinned-override"

    def __init__(self, pins: Mapping) -> None:
        super().__init__()
        self.pins: dict[tuple[str, str], str] = {}
        for key, operator in pins.items():
            if isinstance(key, str):
                table, kind = _split_pin_key(key)
            else:
                table, kind = key
            if kind not in KNOWN_OPERATORS:
                raise ValueError(
                    f"unknown query kind {kind!r}; "
                    f"expected one of {sorted(KNOWN_OPERATORS)}"
                )
            if operator not in KNOWN_OPERATORS[kind]:
                raise ValueError(
                    f"operator {operator!r} is not a {kind} operator; "
                    f"expected one of {KNOWN_OPERATORS[kind]}"
                )
            self.pins[(table, kind)] = operator

    def _apply_selection(
        self, query: object, assignment: PlanAssignment, context: PlanningContext
    ) -> PlanAssignment:
        pin = self.pins.get((context.table, context.kind))
        if pin is None:
            pin = self.pins.get((PIN_ANY_TABLE, context.kind))
        if pin is None:
            assignment.record(
                self.name,
                "noted",
                f"no pin for ({context.table!r}, {context.kind!r})",
            )
            return assignment
        if pin not in context.candidates:
            assignment.record(
                self.name,
                "noted",
                f"pin {pin!r} not applicable here "
                f"(candidates: {', '.join(sorted(context.candidates))})",
            )
            return assignment
        assignment.operator = pin
        assignment.pinned = True
        assignment.decided_by = self.name
        assignment.record(
            self.name,
            "pinned",
            f"forced {pin!r} for ({context.table!r}, {context.kind!r})",
        )
        return assignment


def _split_pin_key(key: str) -> tuple[str, str]:
    """Split a string pin key into ``(table, kind)``."""
    if ":" in key:
        table, __, kind = key.partition(":")
        return table or PIN_ANY_TABLE, kind
    return PIN_ANY_TABLE, key


def parse_pin_spec(spec: str) -> tuple[tuple[str, str], str]:
    """Parse one ``--pin-operator`` specification.

    Accepted forms::

        select=filter-then-knn           # every table's selects
        points:select=filter-then-knn    # one table's selects
        *:join=per-point-selects         # explicit wildcard

    Returns:
        ``((table, kind), operator)`` ready for
        :class:`PinnedOverrideSelection`.

    Raises:
        ValueError: On a malformed spec, unknown kind, or an operator
            the kind does not offer.
    """
    head, sep, operator = spec.partition("=")
    if not sep or not head or not operator:
        raise ValueError(
            f"malformed pin {spec!r}; expected [TABLE:]KIND=OPERATOR, "
            "e.g. 'select=filter-then-knn' or 'points:select=filter-then-knn'"
        )
    table, kind = _split_pin_key(head)
    if kind not in KNOWN_OPERATORS:
        raise ValueError(
            f"unknown query kind {kind!r} in pin {spec!r}; "
            f"expected one of {sorted(KNOWN_OPERATORS)}"
        )
    if operator not in KNOWN_OPERATORS[kind]:
        raise ValueError(
            f"operator {operator!r} in pin {spec!r} is not a {kind} "
            f"operator; expected one of {KNOWN_OPERATORS[kind]}"
        )
    return (table, kind), operator


#: Chain presets selectable by name (the CLI's ``--optimizer`` values).
CHAIN_PRESETS = ("default", "cost-only")


def default_selection_chain() -> PhysicalOperatorSelection:
    """The default chain: freshness guard → cost arbiter → confidence.

    Reproduces the legacy planner's decisions bit-for-bit: the guard
    and the confidence link only observe (record trail entries) unless
    catalogs are stale under the ``"raise"`` policy or a penalty is
    configured.
    """
    return (
        FreshnessGuardSelection()
        .chain_with(CostBasedSelection())
        .chain_with(ConfidenceSelection())
    )


def build_selection_chain(
    preset: str = "default",
    pins: Mapping | None = None,
) -> PhysicalOperatorSelection:
    """Build a chain from a named preset, optionally pin-wrapped.

    Args:
        preset: ``"default"`` (freshness → cost → confidence) or
            ``"cost-only"`` (the bare arbiter).
        pins: Optional :class:`PinnedOverrideSelection` pins, prepended
            so they run before everything else.

    Raises:
        ValueError: On an unknown preset or invalid pins.
    """
    if preset == "default":
        chain = default_selection_chain()
    elif preset == "cost-only":
        chain = CostBasedSelection()
    else:
        raise ValueError(
            f"unknown optimizer preset {preset!r}; "
            f"expected one of {CHAIN_PRESETS}"
        )
    if pins:
        chain = PinnedOverrideSelection(pins).chain_with(chain)
    return chain
