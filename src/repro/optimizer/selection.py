"""Physical-operator arbitration: one cost comparison plus an optional pin.

The paper's cost estimates exist to drive *plan choice* — filter-then-kNN
versus incremental distance browsing, many independent selects versus
one shared k-NN-Join.  :func:`arbitrate` is that choice: the candidate
with the least estimated block cost wins, ties going toward a preference
order, unless an operator pin (experiments, tests, the CLI's
``--pin-operator``) forces one.  It returns one :class:`LinkDecision`
naming the rule that decided, which the planner stores as
:class:`~repro.engine.planner.PlanExplanation`'s ``decided_by`` and
``trail`` — ``EXPLAIN`` then shows *why* a plan won, not just its cost.

Arbitration is called from one place, :mod:`repro.engine.planner` (the
serving coordinator arbitrates through the planner's select assembly),
plus the golden corpus of :mod:`repro.optimizer.regression`, which hands
it candidates costed on substrates the engine does not plan over.  The
golden plan-regression suite (``tests/plan_regression/``, regenerated
with ``python -m repro.optimizer.regression --update``) pins the
decisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

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

#: Wildcard table name in pin specifications.
PIN_ANY_TABLE = "*"


@dataclass(frozen=True)
class LinkDecision:
    """The record of one plan choice.

    Attributes:
        link: The deciding rule — ``"cost-based"`` or
            ``"pinned-override"``.
        action: ``"chose"`` (least cost) or ``"pinned"`` (forced).
        operator: The chosen operator.
        note: Human-readable rationale, including rejected candidates
            and their costs.
        elapsed_us: Wall-clock the arbitration took, microseconds
            (stamped by the planner; 0.0 when unstamped).
    """

    link: str
    action: str
    operator: str
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


def _split_pin_key(key: str) -> tuple[str, str]:
    """Split a string pin key into ``(table, kind)``."""
    if ":" in key:
        table, __, kind = key.partition(":")
        return table or PIN_ANY_TABLE, kind
    return PIN_ANY_TABLE, key


def normalize_pins(pins: Mapping | None) -> dict[tuple[str, str], str]:
    """Validate operator pins into ``{(table, kind): operator}``.

    Args:
        pins: ``{(table, kind): operator}`` — string keys of the form
            ``"table:kind"`` or ``"kind"`` (wildcard table
            :data:`PIN_ANY_TABLE`) are also accepted, matching the CLI's
            ``--pin-operator`` syntax.  ``None`` means no pins.

    Raises:
        ValueError: On an unknown kind or an operator the kind does not
            offer.
    """
    normalized: dict[tuple[str, str], str] = {}
    for key, operator in (pins or {}).items():
        table, kind = _split_pin_key(key) if isinstance(key, str) else key
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
        normalized[(table, kind)] = operator
    return normalized


def parse_pin_spec(spec: str) -> tuple[tuple[str, str], str]:
    """Parse one ``--pin-operator`` specification.

    Accepted forms::

        select=filter-then-knn           # every table's selects
        points:select=filter-then-knn    # one table's selects
        *:join=per-point-selects         # explicit wildcard

    Returns:
        ``((table, kind), operator)`` ready for :func:`normalize_pins`.

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


def arbitrate(
    kind: str,
    table: str,
    candidates: Mapping[str, float],
    tie_order: tuple[str, ...],
    pins: Mapping[tuple[str, str], str] | None = None,
) -> LinkDecision:
    """Choose one operator among ``candidates``.

    An applicable pin wins — an exact ``(table, kind)`` pin over the
    ``(*, kind)`` wildcard; a pin naming an operator this query cannot
    use (e.g. ``region-pruned-knn`` without a region) is noted and
    skipped.  Otherwise the least estimated block cost wins and equal
    costs resolve toward the earlier entry of ``tie_order`` (a full
    scan's sequential pattern beats random-access browsing at equal
    block counts; a region-pruned browser dominates the plain one).

    Args:
        kind: ``"select"``, ``"join"``, ``"range"`` or ``"batch"`` (the
            golden corpus' many-selects-vs-one-join arbitration).
        table: Target relation name (the outer relation for joins).
        candidates: ``{operator: estimated block cost}``.
        tie_order: Candidate preference order.
        pins: Normalized pins (:func:`normalize_pins`), or ``None``.

    Raises:
        ValueError: If no candidate appears in ``tie_order``.
    """
    order = [name for name in tie_order if name in candidates]
    if not order:
        raise ValueError(
            f"no candidates to arbitrate for kind {kind!r} "
            f"(tie_order {tie_order!r}, candidates {sorted(candidates)!r})"
        )
    # ``min`` keeps the first of equal keys: ties go toward ``tie_order``.
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
