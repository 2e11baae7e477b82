"""The resilient estimation layer.

Cost estimation happens without touching the data — so in a production
engine a wrong or crashing estimator must never take down query
planning.  This subpackage provides the four pieces that make the
estimation layer survivable:

* :mod:`~repro.resilience.errors` — the typed error taxonomy every
  estimation failure is expressed in;
* :mod:`~repro.resilience.guards` — boundary validation of queries and
  data (NaN/inf coordinates, ``k`` vs relation size, degenerate
  regions), with a strict/permissive policy switch;
* :mod:`~repro.resilience.fallback` — per-relation estimator fallback
  chains with a guaranteed-bound terminal tier, each call returning
  its provenance;
* :mod:`~repro.resilience.faultinject` — the deterministic
  fault-injection harness the test suite uses to prove all of the above.

Only the dependency-free leaves (``errors``, ``guards``) are imported
eagerly; ``fallback`` and ``faultinject`` subclass the estimator ABCs,
so they are loaded lazily (PEP 562) to keep this package importable
from anywhere in the layer stack — including from inside
``repro.catalog`` and ``repro.estimators`` themselves.
"""

from importlib import import_module

from repro.resilience.errors import (
    BudgetExceededError,
    CatalogCorruptError,
    EstimationError,
    InvalidQueryError,
    OverloadError,
    ShardExhaustedError,
    StaleCatalogError,
)
from repro.resilience.guards import (
    guard_estimate_batch,
    guard_estimate_inputs,
    guard_join_query,
    guard_range_query,
    guard_select_batch,
    guard_select_query,
    require_finite_coordinates,
    require_valid_k,
    require_valid_ks,
)

_LAZY = {
    "FallbackSelectEstimator": "fallback",
    "FallbackJoinEstimator": "fallback",
    "FallbackOutcome": "fallback",
    "FallbackBatchOutcome": "fallback",
    "TierAttempt": "fallback",
    "GUARANTEED_BOUND_TIER": "fallback",
    "FaultSpec": "faultinject",
    "FaultSchedule": "faultinject",
    "FaultInjectingSelectEstimator": "faultinject",
    "FaultInjectingJoinEstimator": "faultinject",
    "WorkerFaultSpec": "faultinject",
    "WorkerFaultPlan": "faultinject",
}

__all__ = [
    "EstimationError",
    "InvalidQueryError",
    "CatalogCorruptError",
    "StaleCatalogError",
    "BudgetExceededError",
    "OverloadError",
    "ShardExhaustedError",
    "guard_select_query",
    "guard_select_batch",
    "guard_join_query",
    "guard_range_query",
    "guard_estimate_batch",
    "guard_estimate_inputs",
    "require_finite_coordinates",
    "require_valid_k",
    "require_valid_ks",
    *_LAZY,
]


def __getattr__(name: str):
    if name in _LAZY:
        module = import_module(f"repro.resilience.{_LAZY[name]}")
        value = getattr(module, name)
        globals()[name] = value  # cache for subsequent lookups
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
