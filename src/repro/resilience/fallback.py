"""Estimator fallback chains with returned provenance.

A wrong or crashing estimator must never take down query planning.
``FallbackSelectEstimator`` and ``FallbackJoinEstimator`` wrap an
ordered list of estimation *tiers* (e.g. Staircase → Density →
Uniform-Model) and degrade through them:

* a tier that raises or returns a non-finite/negative estimate is
  recorded as failed and the next tier is tried — on every call, so a
  tier that recovers answers again at once;
* if every tier fails, the chain answers with a cheap **guaranteed
  bound** instead of raising — the full-scan block count for selects,
  the all-pairs block product for joins — following the
  bounds-over-best-effort principle of the I/O-lower-bound literature:
  degrade toward a correct bound, not toward an exception;
* one walk answers every call, and returns its provenance beside its
  values (:meth:`FallbackSelectEstimator.walk`,
  :meth:`FallbackJoinEstimator.walk`): the tier that answered and what
  happened to the tiers above it — what the planner copies onto
  :class:`~repro.engine.planner.PlanExplanation`.  Nothing is stored
  on the chain, so concurrent callers are isolated by construction.

No clock and no failure history enters the walk: the same tiers, data
and catalogs give the same values and the same provenance, whatever
the host's load.

Tiers are supplied as ``(name, factory)`` pairs and built lazily: a
tier whose *construction* crashes (degenerate blocks, empty relations)
counts as a failed attempt exactly like a crashing ``estimate()``, and
the healthy tiers below it never pay its build cost unless needed.

When the primary tier is healthy the chain is transparent: the output
equals the primary estimator's output exactly (the zero-overhead-when-
healthy invariant, property-tested in ``tests/test_resilience_fallback``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.estimators.base import (
    JoinCostEstimator,
    SelectCostEstimator,
    normalize_batch_args,
)
from repro.geometry import Point
from repro.resilience.errors import BudgetExceededError, EstimationError
from repro.resilience.guards import guard_estimate_batch, guard_estimate_inputs, require_valid_k

#: Terminal pseudo-tier name used when every real tier failed.
GUARANTEED_BOUND_TIER = "guaranteed-bound"


@dataclass(frozen=True, slots=True)
class TierAttempt:
    """One tier's part in answering (or failing to answer) a call."""

    tier: str
    outcome: str  # "ok" or an error summary


@dataclass
class FallbackOutcome:
    """Provenance of one fallback-chain estimate.

    Attributes:
        tier: Name of the tier that produced the answer.
        degraded: Whether a non-primary tier (or the guaranteed bound)
            answered.
        attempts: Per-tier record, in chain order, up to and including
            the answering tier.
    """

    tier: str
    degraded: bool
    attempts: list[TierAttempt] = field(default_factory=list)

    def describe(self) -> str:
        """One-line human-readable provenance."""
        if not self.degraded:
            return f"answered by primary tier {self.tier!r}"
        failed = "; ".join(
            f"{a.tier}: {a.outcome}" for a in self.attempts if a.tier != self.tier
        )
        return f"degraded to tier {self.tier!r} ({failed})"


@dataclass
class FallbackBatchOutcome:
    """Provenance of one fallback-chain walk (:meth:`FallbackSelectEstimator.walk`).

    The batch path partitions failures: a tier that errors as a whole
    moves its entire pending sub-batch to the next tier, while a tier
    returning per-element garbage (non-finite or negative values) moves
    *only those elements* down.  The outcome therefore carries one tier
    label per query rather than a single chain-wide answer.

    Attributes:
        tiers: Per-query name of the answering tier, in batch order.
        degraded: Per-query bool — ``True`` where a non-primary tier
            (or the guaranteed bound) answered.
        attempts: Chain-order record of what each tried tier did for
            the batch as a whole.
    """

    tiers: list[str]
    degraded: np.ndarray
    attempts: list[TierAttempt] = field(default_factory=list)

    def outcome_for(self, i: int) -> FallbackOutcome:
        """Collapse the batch provenance to query ``i``'s scalar view."""
        return FallbackOutcome(
            tier=self.tiers[i],
            degraded=bool(self.degraded[i]),
            attempts=self.attempts,
        )

    def outcome_for_all(self) -> FallbackOutcome:
        """The whole batch as one scalar view: degraded if any query is,
        and then named after the last tier that answered (the walk's last
        attempt); else every query's primary tier."""
        if not self.degraded.any():
            return self.outcome_for(0)
        return FallbackOutcome(tier=self.attempts[-1].tier, degraded=True, attempts=self.attempts)

    def describe(self) -> str:
        """One-line human-readable batch provenance."""
        n = len(self.tiers)
        degraded = int(np.count_nonzero(self.degraded))
        if degraded == 0:
            return f"all {n} queries answered by the primary tier"
        return f"{degraded} of {n} queries degraded past the primary tier"


class _FallbackChain:
    """Shared machinery of the select and join fallback estimators."""

    def __init__(
        self,
        tiers: Sequence[tuple[str, Callable[[], object]]],
        guaranteed_bound: Callable[[], float] | float,
    ) -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one tier")
        seen: set[str] = set()
        for name, __ in tiers:
            if name in seen:
                raise ValueError(f"duplicate tier name {name!r}")
            seen.add(name)
        self._tiers: list[tuple[str, Callable[[], object]]] = list(tiers)
        self._instances: dict[str, object] = {}
        self._build_lock = threading.Lock()
        self._bound = guaranteed_bound
        self._merged = None

    # ------------------------------------------------------------------
    # Introspection and the fault-injection seam
    # ------------------------------------------------------------------
    @property
    def tier_names(self) -> tuple[str, ...]:
        """Chain order, primary first (excludes the guaranteed bound)."""
        return tuple(name for name, __ in self._tiers)

    @property
    def primary_tier(self) -> str:
        """Name of the first (preferred) tier."""
        return self._tiers[0][0]

    def tier_instance(self, tier: str) -> object:
        """Build (if needed) and return one tier's estimator.

        Lazy construction is serialized so two threads racing on a cold
        tier cannot build (and pay for) two instances.
        """
        if tier not in self._instances:
            with self._build_lock:
                if tier not in self._instances:
                    factory = dict(self._tiers)[tier]
                    self._instances[tier] = factory()
        return self._instances[tier]

    def wrap_tier(self, tier: str, wrap: Callable[[object], object]) -> None:
        """Replace a tier's estimator with ``wrap(estimator)``.

        The seam the fault-injection harness uses: wrap the built
        instance in a :class:`~repro.resilience.faultinject` proxy
        without the chain knowing.
        """
        self._instances[tier] = wrap(self.tier_instance(tier))

    # ------------------------------------------------------------------
    # The chain
    # ------------------------------------------------------------------
    def _walk(
        self, pts: np.ndarray, ks: np.ndarray, call: Callable[[object, np.ndarray, np.ndarray], object]
    ) -> tuple[np.ndarray, FallbackBatchOutcome]:
        """Try each tier on the still-unanswered rows; return ``(values, outcome)``.

        A tier exception moves the *whole* pending sub-batch to the next
        tier; per-element garbage — a non-finite or negative value —
        moves only the offending elements down.  Whatever survives every
        tier is answered by the guaranteed bound, so the walk never
        raises for estimator-internal failures.

        The ordinary call is one certificate: the first tier that answers
        answers the whole batch with finite, non-negative values, so it
        is every row's tier; only a batch that fails it is partitioned
        row by row.  The returned array is always a fresh one, and the
        outcome belongs to this call alone.
        """
        m = pts.shape[0]
        out = np.empty(m, dtype=float)
        tiers_used = [GUARANTEED_BOUND_TIER] * m
        degraded = np.zeros(m, dtype=bool)
        attempts: list[TierAttempt] = []
        pending = np.arange(m)
        for position, (name, __) in enumerate(self._tiers):
            if pending.shape[0] == 0:
                break
            whole = pending.shape[0] == m
            try:
                estimator = self.tier_instance(name)
                sub = (pts, ks) if whole else (pts[pending], ks[pending])
                values = np.asarray(call(estimator, *sub), dtype=float).reshape(-1)
                if values.shape[0] != pending.shape[0]:
                    raise EstimationError(
                        f"tier returned {values.shape[0]} estimates for "
                        f"{pending.shape[0]} queries"
                    )
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                attempts.append(TierAttempt(name, f"{type(exc).__name__}: {exc}"))
                continue
            if whole and values.min() >= 0.0 and values.max() < np.inf:
                attempts.append(TierAttempt(name, "ok"))
                return values.copy(), FallbackBatchOutcome(
                    tiers=[name] * m, degraded=np.full(m, position > 0), attempts=attempts
                )
            good = (values >= 0.0) & (values < np.inf)
            answered = pending[good]
            out[answered] = values[good]
            for i in answered.tolist():
                tiers_used[i] = name
            degraded[answered] = position > 0
            n_bad = pending.shape[0] - answered.shape[0]
            attempts.append(
                TierAttempt(
                    name,
                    f"invalid estimate for {n_bad} of {pending.shape[0]} queries"
                    if n_bad else "ok",
                )
            )
            pending = pending[~good]
        if pending.shape[0]:
            bound = float(self._bound() if callable(self._bound) else self._bound)
            out[pending] = bound
            degraded[pending] = True
            attempts.append(TierAttempt(GUARANTEED_BOUND_TIER, "ok"))
        return out, FallbackBatchOutcome(tiers=tiers_used, degraded=degraded, attempts=attempts)

    # ------------------------------------------------------------------
    # Shared estimator bookkeeping
    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        """Storage of every tier built so far."""
        return sum(
            est.storage_bytes()
            for est in self._instances.values()
            if hasattr(est, "storage_bytes")
        )

    @property
    def preprocessing_seconds(self) -> float:
        """Preprocessing spent by every tier built so far."""
        return sum(
            getattr(est, "preprocessing_seconds", 0.0)
            for est in self._instances.values()
        )

    @preprocessing_seconds.setter
    def preprocessing_seconds(self, value: float) -> None:
        # The SelectCostEstimator ABC declares a class attribute; the
        # chain derives the value from its tiers, so assignment is a no-op.
        pass

    @property
    def preprocessing_stats(self):
        """Merged :class:`~repro.perf.PreprocessingStats` of built tiers.

        Counters and phase timings are summed across every tier built so
        far; returns ``None`` when no built tier carries stats.
        """
        from repro.perf import PreprocessingStats

        collected = [
            stats
            for stats in [
                getattr(est, "preprocessing_stats", None)
                for est in self._instances.values()
            ]
            if stats is not None
        ]
        if not collected:
            return None
        # A build installs a fresh stats object: merge once per set.
        if self._merged is None or self._merged[0] != collected:
            self._merged = (collected, PreprocessingStats.merged(collected))
        return self._merged[1]


class FallbackSelectEstimator(_FallbackChain, SelectCostEstimator):
    """A k-NN-Select estimator that degrades through a tier chain.

    Args:
        tiers: Ordered ``(name, factory)`` pairs; each factory builds a
            :class:`~repro.estimators.base.SelectCostEstimator` lazily.
        guaranteed_bound: The terminal answer when every tier fails —
            for selects, the relation's block count (a full scan never
            costs more).  A float or a zero-argument callable.
    """

    def estimate(self, query: Point, k: int) -> float:
        """Estimate via the first healthy tier: the walk over a batch of one.

        Never raises for estimator-internal failures (boundary
        validation still applies).

        Raises:
            InvalidQueryError: On a non-finite focal point or ``k < 1``
                — invalid inputs are the caller's bug, not a failure to
                degrade around.
        """
        guard_estimate_inputs(query, k)
        values, __ = self._walk(np.array([[query.x, query.y]]), np.array([k]), _estimate_batch)
        return float(values[0])

    def estimate_batch(self, queries, ks) -> np.ndarray:
        """Batched estimation with per-sub-batch degradation (:meth:`walk`'s values)."""
        return self.walk(queries, ks)[0]

    def walk(self, queries, ks) -> tuple[np.ndarray, FallbackBatchOutcome]:
        """Batched estimation and its provenance.

        Unlike a loop of scalar :meth:`estimate` calls — which pays the
        whole chain walk per query — a tier failure here partitions the
        batch: the failing elements (or, on a tier-wide exception, the
        whole pending sub-batch) move to the next tier while everything
        the tier answered cleanly stays.

        Returns:
            ``(values, outcome)`` — the ``(m,)`` estimates and the
            per-query :class:`FallbackBatchOutcome` of this call.

        Raises:
            InvalidQueryError: On any non-finite focal point or
                ``k < 1`` — invalid inputs are the caller's bug, not a
                failure to degrade around.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        guard_estimate_batch(pts, ks_arr)
        return self._walk(pts, ks_arr, _estimate_batch)


def _estimate_batch(estimator, pts: np.ndarray, ks: np.ndarray) -> np.ndarray:
    return estimator.estimate_batch(pts, ks)


def select_costs(
    estimator: SelectCostEstimator, queries, ks
) -> tuple[np.ndarray, FallbackBatchOutcome]:
    """Batch select costs and their provenance, from a chain or a raw estimator.

    A chain returns its :meth:`~FallbackSelectEstimator.walk`; a raw
    estimator's rows name no tier (``""``) and never degrade.
    """
    if isinstance(estimator, FallbackSelectEstimator):
        return estimator.walk(queries, ks)
    costs = np.asarray(estimator.estimate_batch(queries, ks), dtype=float)
    m = costs.shape[0]
    return costs, FallbackBatchOutcome([""] * m, np.zeros(m, dtype=bool))


class FallbackJoinEstimator(_FallbackChain, JoinCostEstimator):
    """A k-NN-Join estimator that degrades through a tier chain.

    Args:
        tiers: Ordered ``(name, factory)`` pairs; each factory builds a
            :class:`~repro.estimators.base.JoinCostEstimator` lazily.
        guaranteed_bound: The terminal answer when every tier fails —
            for joins, ``outer blocks x inner blocks`` (every outer
            block scanning the whole inner relation).
    """

    def estimate(self, k: int) -> float:
        """Estimate via the first healthy tier (:meth:`walk`'s value)."""
        return self.walk(k)[0]

    def walk(self, k: int) -> tuple[float, FallbackOutcome]:
        """Estimate and its provenance: the walk over one row.

        Raises:
            InvalidQueryError: If ``k < 1``.
        """
        require_valid_k(k)
        row = np.array([k])
        values, outcome = self._walk(row, row, lambda est, *__: est.estimate(k))
        return float(values[0]), outcome.outcome_for(0)


def budget_check(start: float, budget: float | None, what: str = "estimation") -> None:
    """Raise when ``budget`` seconds have elapsed since ``start``.

    A cooperative checkpoint a shard worker calls between serving
    slices, so a blown deadline surfaces *during* the round instead of
    only after it returns.

    Raises:
        BudgetExceededError: When the elapsed time exceeds the budget.
    """
    if budget is None:
        return
    elapsed = time.perf_counter() - start
    if elapsed > budget:
        raise BudgetExceededError(
            f"{what} exceeded its time budget: {elapsed:.3f}s > {budget:.3f}s"
        )
