"""Estimator fallback chains with health tracking.

A wrong or crashing estimator must never take down query planning.
``FallbackSelectEstimator`` and ``FallbackJoinEstimator`` wrap an
ordered list of estimation *tiers* (e.g. Staircase → Density →
Uniform-Model) and degrade through them:

* a tier that raises, returns a non-finite/negative estimate, or blows
  the per-call time budget is recorded as failed and the next tier is
  tried;
* per-tier health is tracked with a circuit breaker — after
  ``breaker_threshold`` *consecutive* failures a tier is skipped for
  ``breaker_cooldown`` calls, so a persistently broken estimator stops
  costing a failed attempt (and its latency) on every query;
* if every tier fails, the chain answers with a cheap **guaranteed
  bound** instead of raising — the full-scan block count for selects,
  the all-pairs block product for joins — following the
  bounds-over-best-effort principle of the I/O-lower-bound literature:
  degrade toward a correct bound, not toward an exception;
* every call records a :class:`FallbackOutcome` naming the tier that
  answered and what happened to the tiers above it — the provenance the
  planner copies onto :class:`~repro.engine.planner.PlanExplanation`.

Tiers are supplied as ``(name, factory)`` pairs and built lazily: a
tier whose *construction* crashes (degenerate blocks, empty relations)
counts as a failed attempt exactly like a crashing ``estimate()``, and
the healthy tiers below it never pay its build cost unless needed.

When the primary tier is healthy the chain is transparent: the output
equals the primary estimator's output exactly (the zero-overhead-when-
healthy invariant, property-tested in ``tests/test_resilience_fallback``).
"""

from __future__ import annotations

import math
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

#: Consecutive failures before a tier's circuit breaker opens.
DEFAULT_BREAKER_THRESHOLD = 3
#: Calls a tier is skipped for once its breaker has opened.
DEFAULT_BREAKER_COOLDOWN = 16

#: Terminal pseudo-tier name used when every real tier failed.
GUARANTEED_BOUND_TIER = "guaranteed-bound"


@dataclass(frozen=True, slots=True)
class TierAttempt:
    """One tier's part in answering (or failing to answer) a call."""

    tier: str
    outcome: str  # "ok", "skipped (circuit open)", or an error summary


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
    """Provenance of one fallback-chain :meth:`estimate_batch` call.

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

    def describe(self) -> str:
        """One-line human-readable batch provenance."""
        n = len(self.tiers)
        degraded = int(np.count_nonzero(self.degraded))
        if degraded == 0:
            return f"all {n} queries answered by the primary tier"
        return f"{degraded} of {n} queries degraded past the primary tier"


class _TierHealth:
    """Failure counters and circuit-breaker state for one tier.

    All mutations go through one internal lock: the counters are shared
    by every thread of a concurrent coordinator (the sharded serving
    tier serves shards from a thread pool, and several threads may
    degrade through the same fallback chain at once), and unlocked
    ``+=`` read-modify-write cycles lose updates under contention.
    Reads of a single counter are plain attribute reads — they are
    atomic under the GIL and only ever observe a consistent int.
    """

    __slots__ = (
        "consecutive_failures",
        "cooldown_remaining",
        "total_failures",
        "total_calls",
        "_lock",
    )

    def __init__(self) -> None:
        self.consecutive_failures = 0
        self.cooldown_remaining = 0
        self.total_failures = 0
        self.total_calls = 0
        self._lock = threading.Lock()

    @property
    def circuit_open(self) -> bool:
        return self.cooldown_remaining > 0

    def record_success(self) -> None:
        with self._lock:
            self.total_calls += 1
            self.consecutive_failures = 0

    def record_failure(self, threshold: int, cooldown: int) -> None:
        with self._lock:
            self.total_calls += 1
            self.total_failures += 1
            self.consecutive_failures += 1
            if self.consecutive_failures >= threshold:
                self.cooldown_remaining = cooldown

    def tick_skip(self) -> None:
        with self._lock:
            self.cooldown_remaining -= 1


class _FallbackChain:
    """Shared machinery of the select and join fallback estimators."""

    def __init__(
        self,
        tiers: Sequence[tuple[str, Callable[[], object]]],
        guaranteed_bound: Callable[[], float] | float,
        breaker_threshold: int = DEFAULT_BREAKER_THRESHOLD,
        breaker_cooldown: int = DEFAULT_BREAKER_COOLDOWN,
        time_budget_seconds: float | None = None,
    ) -> None:
        if not tiers:
            raise ValueError("a fallback chain needs at least one tier")
        if breaker_threshold < 1:
            raise ValueError(f"breaker_threshold must be >= 1, got {breaker_threshold}")
        if breaker_cooldown < 1:
            raise ValueError(f"breaker_cooldown must be >= 1, got {breaker_cooldown}")
        if time_budget_seconds is not None and time_budget_seconds <= 0:
            raise ValueError(f"time_budget_seconds must be positive, got {time_budget_seconds}")
        seen: set[str] = set()
        for name, __ in tiers:
            if name in seen:
                raise ValueError(f"duplicate tier name {name!r}")
            seen.add(name)
        self._tiers: list[tuple[str, Callable[[], object]]] = list(tiers)
        self._instances: dict[str, object] = {}
        self._build_lock = threading.Lock()
        self._health: dict[str, _TierHealth] = {name: _TierHealth() for name, __ in tiers}
        self._bound = guaranteed_bound
        self._threshold = breaker_threshold
        self._cooldown = breaker_cooldown
        self._budget = time_budget_seconds
        # Per-thread provenance: a chain shared by a concurrent
        # coordinator must not let thread A's batch overwrite the
        # outcome thread B is about to read back.
        self._outcomes = threading.local()
        self._merged = None

    # ------------------------------------------------------------------
    # Per-call provenance (thread-local, so concurrent callers each see
    # the outcome of *their own* last call)
    # ------------------------------------------------------------------
    @property
    def last_outcome(self) -> FallbackOutcome | None:
        """Provenance of the calling thread's most recent :meth:`estimate`."""
        return getattr(self._outcomes, "scalar", None)

    @last_outcome.setter
    def last_outcome(self, value: FallbackOutcome | None) -> None:
        self._outcomes.scalar = value

    @property
    def last_batch_outcome(self) -> FallbackBatchOutcome | None:
        """Provenance of the calling thread's most recent batch call."""
        return getattr(self._outcomes, "batch", None)

    @last_batch_outcome.setter
    def last_batch_outcome(self, value: FallbackBatchOutcome | None) -> None:
        self._outcomes.batch = value

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

    def health(self, tier: str) -> _TierHealth:
        """The health record of one tier (for monitoring and tests)."""
        return self._health[tier]

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

    def reset_health(self) -> None:
        """Clear all failure counters and close every circuit breaker."""
        self._health = {name: _TierHealth() for name, __ in self._tiers}

    # ------------------------------------------------------------------
    # The chain
    # ------------------------------------------------------------------
    def _run(self, call: Callable[[object], float]) -> float:
        """Try each tier in order; fall through to the guaranteed bound."""
        attempts: list[TierAttempt] = []
        for position, (name, __) in enumerate(self._tiers):
            health = self._health[name]
            if health.circuit_open:
                health.tick_skip()
                attempts.append(TierAttempt(name, "skipped (circuit open)"))
                continue
            start = time.perf_counter()
            try:
                estimator = self.tier_instance(name)
                value = float(call(estimator))
            except EstimationError as exc:
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(TierAttempt(name, f"{type(exc).__name__}: {exc}"))
                continue
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(TierAttempt(name, f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = time.perf_counter() - start
            if self._budget is not None and elapsed > self._budget:
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(
                    TierAttempt(
                        name,
                        f"BudgetExceededError: took {elapsed:.3f}s "
                        f"(budget {self._budget:.3f}s)",
                    )
                )
                continue
            if not math.isfinite(value) or value < 0.0:
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(TierAttempt(name, f"invalid estimate {value!r}"))
                continue
            health.record_success()
            attempts.append(TierAttempt(name, "ok"))
            self.last_outcome = FallbackOutcome(
                tier=name, degraded=position > 0, attempts=attempts
            )
            return value
        bound = float(self._bound() if callable(self._bound) else self._bound)
        attempts.append(TierAttempt(GUARANTEED_BOUND_TIER, "ok"))
        self.last_outcome = FallbackOutcome(
            tier=GUARANTEED_BOUND_TIER, degraded=True, attempts=attempts
        )
        return bound

    def _run_batch(
        self, pts: np.ndarray, ks: np.ndarray, call: Callable[[object, np.ndarray, np.ndarray], np.ndarray]
    ) -> np.ndarray:
        """Try each tier on the still-unanswered sub-batch.

        A tier exception (or a blown time budget) moves the *whole*
        pending sub-batch to the next tier; per-element garbage — a
        non-finite or negative value — moves only the offending elements
        down.  Whatever survives every tier is answered by the
        guaranteed bound, so the batch never raises for
        estimator-internal failures.

        The ordinary call is one certificate: the first tier that answers
        answers the whole batch with finite, non-negative values, so it
        records one success and is every row's tier; only a batch that
        fails it is partitioned row by row.

        Health accounting treats one batch call to a tier as one call:
        a tier records one success when it cleanly answered everything
        it was given and one failure otherwise, so circuit-breaker
        thresholds keep their "consecutive calls" meaning under batched
        serving.  The returned array is always a fresh one.
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
            health = self._health[name]
            if health.circuit_open:
                health.tick_skip()
                attempts.append(TierAttempt(name, "skipped (circuit open)"))
                continue
            whole = pending.shape[0] == m
            start = time.perf_counter()
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
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(TierAttempt(name, f"{type(exc).__name__}: {exc}"))
                continue
            elapsed = time.perf_counter() - start
            if self._budget is not None and elapsed > self._budget:
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(
                    TierAttempt(
                        name,
                        f"BudgetExceededError: took {elapsed:.3f}s "
                        f"(budget {self._budget:.3f}s)",
                    )
                )
                continue
            if whole and values.min() >= 0.0 and values.max() < np.inf:
                health.record_success()
                attempts.append(TierAttempt(name, "ok"))
                self.last_batch_outcome = FallbackBatchOutcome(
                    tiers=[name] * m, degraded=np.full(m, position > 0), attempts=attempts
                )
                return values.copy()
            good = (values >= 0.0) & (values < np.inf)
            answered = pending[good]
            out[answered] = values[good]
            for i in answered.tolist():
                tiers_used[i] = name
            degraded[answered] = position > 0
            n_bad = pending.shape[0] - answered.shape[0]
            if n_bad:
                health.record_failure(self._threshold, self._cooldown)
                attempts.append(
                    TierAttempt(
                        name,
                        f"invalid estimate for {n_bad} of "
                        f"{pending.shape[0]} queries",
                    )
                )
            else:
                health.record_success()
                attempts.append(TierAttempt(name, "ok"))
            pending = pending[~good]
        if pending.shape[0]:
            bound = float(self._bound() if callable(self._bound) else self._bound)
            out[pending] = bound
            degraded[pending] = True
            attempts.append(TierAttempt(GUARANTEED_BOUND_TIER, "ok"))
        self.last_batch_outcome = FallbackBatchOutcome(
            tiers=tiers_used, degraded=degraded, attempts=attempts
        )
        return out

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
        breaker_threshold: Consecutive failures that open a tier's
            circuit breaker.
        breaker_cooldown: Calls a tier is skipped once its breaker opens.
        time_budget_seconds: Per-call budget; a tier exceeding it is
            treated as failed (``None`` disables the budget).
    """

    def estimate(self, query: Point, k: int) -> float:
        """Estimate via the first healthy tier; never raises for
        estimator-internal failures (boundary validation still applies).

        Raises:
            InvalidQueryError: On a non-finite focal point or ``k < 1``
                — invalid inputs are the caller's bug, not a failure to
                degrade around.
        """
        guard_estimate_inputs(query, k)
        return self._run(lambda est: est.estimate(query, k))

    def estimate_batch(self, queries, ks) -> np.ndarray:
        """Batched estimation with per-sub-batch degradation.

        Unlike a loop of scalar :meth:`estimate` calls — which pays the
        whole chain walk per query — a tier failure here partitions the
        batch: the failing elements (or, on a tier-wide exception, the
        whole pending sub-batch) move to the next tier while everything
        the tier answered cleanly stays.  Per-query provenance is
        recorded on :attr:`last_batch_outcome`.

        Raises:
            InvalidQueryError: On any non-finite focal point or
                ``k < 1`` — invalid inputs are the caller's bug, not a
                failure to degrade around.
        """
        pts, ks_arr = normalize_batch_args(queries, ks)
        guard_estimate_batch(pts, ks_arr)
        return self._run_batch(
            pts, ks_arr, lambda est, p, k: est.estimate_batch(p, k)
        )


class FallbackJoinEstimator(_FallbackChain, JoinCostEstimator):
    """A k-NN-Join estimator that degrades through a tier chain.

    Args:
        tiers: Ordered ``(name, factory)`` pairs; each factory builds a
            :class:`~repro.estimators.base.JoinCostEstimator` lazily.
        guaranteed_bound: The terminal answer when every tier fails —
            for joins, ``outer blocks x inner blocks`` (every outer
            block scanning the whole inner relation).
        breaker_threshold: Consecutive failures that open a tier's
            circuit breaker.
        breaker_cooldown: Calls a tier is skipped once its breaker opens.
        time_budget_seconds: Per-call budget; a tier exceeding it is
            treated as failed (``None`` disables the budget).
    """

    def estimate(self, k: int) -> float:
        """Estimate via the first healthy tier.

        Raises:
            InvalidQueryError: If ``k < 1``.
        """
        require_valid_k(k)
        return self._run(lambda est: est.estimate(k))


def budget_check(start: float, budget: float | None, what: str = "estimation") -> None:
    """Raise when ``budget`` seconds have elapsed since ``start``.

    A cooperative checkpoint long-running estimators can call between
    phases so a budget violation surfaces *during* the call instead of
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
