"""A miniature cost-based query optimizer.

Section 1 motivates k-NN cost estimation with query-execution-plan
(QEP) choice: a query combining a k-NN-Select with a relational
predicate can be run *filter-first* (apply the relational select, then
k-NN over the qualifying tuples) or *incrementally* (distance browsing
with the predicate evaluated on the fly, stopping at k qualifying
results) — and the cheaper plan depends on the estimated k-NN cost.
The same holds one operator later (many k-NN-Selects versus one
k-NN-Join, Section 1's shared-execution motivation).

This subpackage holds the *arbitration*:
:func:`repro.optimizer.selection.arbitrate` is one cost comparison plus
an optional operator pin.  Plans are enumerated and costed by
:mod:`repro.engine.planner` — the only caller at run time — and
executed by :mod:`repro.engine.physical`; the golden plan-regression
corpus guarding the decisions is maintained by
:mod:`repro.optimizer.regression`.
"""

from repro.optimizer.selection import (
    LinkDecision,
    arbitrate,
    normalize_pins,
    parse_pin_spec,
)

__all__ = [
    "LinkDecision",
    "arbitrate",
    "normalize_pins",
    "parse_pin_spec",
]
