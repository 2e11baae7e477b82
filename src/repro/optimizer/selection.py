"""Physical-operator arbitration: one cost comparison plus an optional pin.

The paper's cost estimates exist to drive *plan choice* — filter-then-kNN
versus incremental distance browsing, many independent selects versus
one shared k-NN-Join.  :func:`arbitrate_batch` is that choice over a
cost matrix, one row per plan: the candidate with the least estimated
block cost wins, ties going toward a preference order, unless an
operator pin (experiments, tests, the CLI's ``--pin-operator``) forces
one.  Each row gets one :class:`LinkDecision` naming the rule that
decided, which the planner stores as
:class:`~repro.engine.planner.PlanExplanation`'s ``decided_by`` and
``trail`` — ``EXPLAIN`` then shows *why* a plan won, not just its cost.
:func:`arbitrate` is the batch of one.

Arbitration is called from one place, :mod:`repro.engine.planner` (the
serving coordinator arbitrates through the planner's select assembly),
plus the golden corpus of :mod:`repro.optimizer.regression`, which hands
:func:`arbitrate` candidates costed on substrates the engine does not
plan over.  The
golden plan-regression suite (``tests/plan_regression/``, regenerated
with ``python -m repro.optimizer.regression --update``) pins the
decisions.
"""

from __future__ import annotations

import time
from functools import lru_cache
from operator import itemgetter
from typing import Mapping

import numpy as np

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

#: Bit ``j`` set when a cost-matrix row has the candidate of column ``j``.
_COLUMN_BITS = 1 << np.arange(62)


class LinkDecision:
    """The record of one plan choice.

    A plain record, not a dataclass: a batch builds one per plan.
    Equality and the hash read ``link``, ``action``, ``operator`` and
    ``note``; ``repr`` and pickles carry ``elapsed_us`` too.

    Attributes:
        link: The deciding rule — ``"cost-based"`` or
            ``"pinned-override"``.
        action: ``"chose"`` (least cost) or ``"pinned"`` (forced).
        operator: The chosen operator.
        note: Human-readable rationale, including rejected candidates
            and their costs.  :func:`arbitrate_batch` passes
            ``((template, pick), costs)`` instead, worded when first read.
        elapsed_us: This decision's share of the arbitration's
            wall-clock, microseconds (the batch's time over its rows;
            0.0 when unstamped).  Not part of equality: two records
            of the same decision compare equal.
    """

    __slots__ = ("link", "action", "operator", "_note", "elapsed_us")

    def __init__(self, link: str, action: str, operator: str, note="", elapsed_us: float = 0.0):
        self.link, self.action, self.operator = link, action, operator
        self._note, self.elapsed_us = note, elapsed_us

    @property
    def note(self) -> str:
        if self._note.__class__ is tuple:
            (template, pick), costs = self._note
            self._note = template.format(*pick(costs))
        return self._note

    def _fields(self) -> tuple:
        return self.link, self.action, self.operator, self.note, self.elapsed_us

    def __reduce__(self):
        return LinkDecision, self._fields()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields()[:4] == other._fields()[:4]

    def __hash__(self) -> int:
        return hash(self._fields()[:4])

    def __repr__(self) -> str:
        names = ("link", "action", "operator", "note", "elapsed_us")
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, self._fields()))
        return f"LinkDecision({fields})"

    def describe(self) -> str:
        """One line for ``EXPLAIN`` output."""
        note = self.note
        line = f"{self.link} [{self.action}]: {note}" if note else f"{self.link} [{self.action}]"
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
    """Choose one operator among ``candidates``: the batch of one.

    :func:`arbitrate_batch` over a one-row matrix of the candidates that
    appear in ``tie_order`` (others are ignored).

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
    order = tuple(name for name in tie_order if name in candidates)
    if not order:
        raise ValueError(
            f"no candidates to arbitrate for kind {kind!r} "
            f"(tie_order {tie_order!r}, candidates {sorted(candidates)!r})"
        )
    (decision,) = arbitrate_batch(
        kind, table, [[candidates[name] for name in order]], order, pins
    )
    return decision


def arbitrate_batch(
    kind: str,
    table: str,
    costs,
    tie_order: tuple[str, ...],
    pins: Mapping[tuple[str, str], str] | None = None,
) -> list[LinkDecision]:
    """Choose one operator per row of a cost matrix.

    An applicable pin wins — an exact ``(table, kind)`` pin over the
    ``(*, kind)`` wildcard, looked up once for the whole matrix; a pin
    naming an operator a row does not have (e.g. ``region-pruned-knn``
    without a region) is noted and skipped.  Otherwise the least
    estimated block cost wins and equal costs resolve toward the earlier
    column — ``argmin`` keeps the first of equal values (a full scan's
    sequential pattern beats random-access browsing at equal block
    counts; a region-pruned browser dominates the plain one).

    One clock pair spans the whole matrix: every record's
    ``elapsed_us`` is its row's share of the arbitration's wall-clock.

    Args:
        kind: As for :func:`arbitrate`.
        table: As for :func:`arbitrate`.
        costs: ``(n, len(tie_order))`` estimated block costs, columns in
            ``tie_order``; ``+inf`` marks a candidate the row does not
            have.
        tie_order: The columns' operator names, in preference order.
        pins: Normalized pins (:func:`normalize_pins`), or ``None``.

    Raises:
        ValueError: If a row has no candidate.
    """
    tick = time.perf_counter()
    width = len(tie_order)
    costs = np.asarray(costs, dtype=float).reshape(-1, width)
    if costs.shape[0] == 0:
        return []
    # A row's verdict is fixed by its candidate set and its winner: key
    # rows by both, so each verdict is worded once and filled per row.
    keys = ((costs != np.inf).dot(_COLUMN_BITS[:width]) * width + costs.argmin(1)).tolist()
    pin = None
    if pins:
        pin = pins.get((table, kind)) or pins.get((PIN_ANY_TABLE, kind))
    verdicts = {
        key: _verdict(kind, table, tie_order, pin, *divmod(key, width)) for key in set(keys)
    }
    elapsed_us = (time.perf_counter() - tick) * 1e6 / len(keys)
    # Each note is worded from its verdict's template when first read.
    return [
        LinkDecision(link, action, operator, (wording, row), elapsed_us)
        for (link, action, operator, wording), row in zip(
            map(verdicts.__getitem__, keys), costs.tolist()
        )
    ]


@lru_cache(maxsize=1024)
def _verdict(kind: str, table: str, tie_order: tuple[str, ...], pin, code: int, best: int):
    """``(link, action, operator, (note template, row picker))`` of one verdict.

    ``code`` holds the row's candidate columns as bits and ``best`` is
    its cheapest column; the template's fields are filled with
    ``pick(row)`` — the winner's cost, then the rejected candidates'.
    Pure, so memoized: each verdict is worded once per process.

    Raises:
        ValueError: If the row has no candidate.
    """
    if code == 0:
        raise ValueError(f"no candidates to arbitrate for kind {kind!r} (tie_order {tie_order!r})")
    columns = [j for j in range(len(tie_order)) if code >> j & 1]
    others = [j for j in columns if j != best]
    chose = f"{_literal(repr(tie_order[best]))} at {{0:.1f}} blocks"
    if pin in tie_order and tie_order.index(pin) in columns:
        forced = f"forced {pin!r} for ({table!r}, {kind!r}); cost arbitration would have chosen "
        return "pinned-override", "pinned", pin, (_literal(forced) + chose, itemgetter(best, best))
    note = "chose " + chose
    if others:
        rejected = (f"{_literal(tie_order[j])} at {{{i}:.1f}}" for i, j in enumerate(others, 1))
        note += f" (rejected {', '.join(rejected)})"
    if pin is not None:
        names = ", ".join(sorted(tie_order[j] for j in columns))
        note += _literal(f"; pin {pin!r} not applicable here (candidates: {names})")
    return "cost-based", "chose", tie_order[best], (note, itemgetter(best, *others or [best]))


def _literal(text: str) -> str:
    """``text`` escaped for use inside a ``str.format`` template."""
    return text.replace("{", "{{").replace("}", "}}")
