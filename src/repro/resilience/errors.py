"""The estimation-layer error taxonomy.

The paper's value proposition is cost estimation *without touching the
data* — which in a production optimizer means an estimator failure must
be a typed, catchable event, never a raw ``ValueError`` or
``struct.error`` leaking out of a codec or a degenerate computation.
Every failure the estimation layer can signal derives from
:class:`EstimationError`, so callers (the planner's fallback chains, the
CLI, user code) can catch one type and degrade deliberately.

Hierarchy::

    EstimationError
    ├── InvalidQueryError (also ValueError)   — bad inputs at the boundary
    ├── CatalogCorruptError (also ValueError) — damaged persisted catalogs
    ├── StaleCatalogError                     — catalogs older than the data
    ├── BudgetExceededError                   — a worker's deadline blown
    ├── OverloadError                         — admission control shed the work
    └── ShardExhaustedError                   — no shard could answer (strict mode)

``InvalidQueryError`` and ``CatalogCorruptError`` double as
``ValueError`` so that pre-taxonomy call sites (and tests) catching
``ValueError`` keep working unchanged.
"""

from __future__ import annotations


class EstimationError(Exception):
    """Base class for every failure of the cost-estimation layer."""


class InvalidQueryError(EstimationError, ValueError):
    """A query or data input failed boundary validation.

    Raised for NaN/infinite coordinates, malformed data rows, ``k < 1``,
    degenerate query regions, and similar inputs that can never produce
    a meaningful estimate.
    """


class CatalogCorruptError(EstimationError, ValueError):
    """Persisted catalog bytes are damaged.

    Raised on truncation, bad magic/version, entry-count mismatches, and
    checksum failures.  A corrupt catalog must never deserialize into a
    plausible-but-wrong catalog silently.
    """


class StaleCatalogError(EstimationError):
    """Catalogs were built before the underlying data changed.

    Raised when an estimator's build-time data generation no longer
    matches the index it answers for; callers rebuild or degrade instead
    of answering from dead statistics.
    """


class BudgetExceededError(EstimationError):
    """A serving worker's round ran past its propagated deadline."""


class OverloadError(EstimationError):
    """Admission control rejected work the tier cannot absorb right now.

    Raised *before* any query is served — load shedding at the front
    door, not a mid-flight failure.  Carries a ``retry_after`` hint
    (seconds) derived from the tier's observed drain rate so callers can
    back off intelligently instead of hammering a saturated tier.

    Attributes:
        retry_after: Suggested wait before retrying, in seconds
            (``None`` when the tier cannot estimate one).
    """

    def __init__(self, message: str, retry_after: float | None = None) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ShardExhaustedError(EstimationError):
    """Every eligible shard failed and degradation was disabled.

    Under the default graceful-degradation policy an unavailable shard's
    queries keep the coordinator's plan and come back estimate-only or
    partial, marked degraded; under ``strict`` serving that degradation is an
    error, and this is it.  Names the shards that failed.
    """
