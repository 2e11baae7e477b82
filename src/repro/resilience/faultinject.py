"""Deterministic fault injection for estimators.

The resilience layer is only trustworthy if its failure paths are
exercised on purpose.  This module wraps any select or join estimator in
a proxy that — on a *seeded, reproducible schedule* — raises a chosen
error or corrupts the returned estimate.  The test
suite uses it to prove the engine still plans and executes every
workload query while its primary estimators misbehave.

Example::

    schedule = FaultSchedule(FaultSpec.raising(), every=1)   # every call
    chain.wrap_tier("staircase", lambda est: FaultInjectingSelectEstimator(est, schedule))

Schedules fire by call index, so a replayed workload hits the same
faults in the same places regardless of wall clock or interleaving.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from repro.estimators.base import JoinCostEstimator, SelectCostEstimator
from repro.geometry import Point
from repro.resilience.errors import EstimationError

FaultKind = Literal["raise", "corrupt"]


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """What happens when a fault fires.

    Attributes:
        kind: ``"raise"`` (raise ``error``) or ``"corrupt"`` (return
            ``corrupt_value`` instead of the true estimate).
        error: Exception type raised for ``"raise"`` faults.
        message: Message for raised faults.
        corrupt_value: Returned value for ``"corrupt"`` faults; the
            default NaN is caught by the fallback chain's result guard.
    """

    kind: FaultKind
    error: type[Exception] = EstimationError
    message: str = "injected fault"
    corrupt_value: float = float("nan")

    def __post_init__(self) -> None:
        if self.kind not in ("raise", "corrupt"):
            raise ValueError(f"unknown fault kind {self.kind!r}")

    @classmethod
    def raising(cls, error: type[Exception] = EstimationError, message: str = "injected fault") -> "FaultSpec":
        """A fault that raises ``error(message)``."""
        return cls(kind="raise", error=error, message=message)

    @classmethod
    def corrupting(cls, value: float = float("nan")) -> "FaultSpec":
        """A fault that replaces the estimate with ``value``."""
        return cls(kind="corrupt", corrupt_value=value)


class FaultSchedule:
    """A deterministic schedule deciding which calls a fault hits.

    Exactly one trigger mode is chosen:

    * ``calls`` — an explicit set of 0-based call indices;
    * ``every`` — every ``every``-th call starting at ``after``;
    * ``probability`` — a seeded per-call Bernoulli draw (derived from
      ``(seed, call_index)``, so replays fire identically).

    Args:
        fault: The :class:`FaultSpec` applied when the schedule fires.
        calls: Explicit call indices.
        every: Fire period (``1`` = every call).
        after: First call index eligible to fire (for ``every`` mode).
        probability: Per-call fire probability in ``[0, 1]``.
        seed: Seed for ``probability`` mode.

    Raises:
        ValueError: If no or multiple trigger modes are given.
    """

    def __init__(
        self,
        fault: FaultSpec,
        calls: Iterable[int] | None = None,
        every: int | None = None,
        after: int = 0,
        probability: float | None = None,
        seed: int = 0,
    ) -> None:
        modes = sum(x is not None for x in (calls, every, probability))
        if modes != 1:
            raise ValueError("choose exactly one of calls=, every=, probability=")
        if every is not None and every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        if probability is not None and not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        self.fault = fault
        self._calls = frozenset(int(c) for c in calls) if calls is not None else None
        self._every = every
        self._after = after
        self._probability = probability
        self._seed = seed

    def fires(self, call_index: int) -> bool:
        """Whether the fault hits call ``call_index`` (0-based)."""
        if self._calls is not None:
            return call_index in self._calls
        if self._every is not None:
            return call_index >= self._after and (call_index - self._after) % self._every == 0
        # Seeded per-call draw: independent of call order and wall clock.
        draw = random.Random((self._seed << 32) ^ call_index).random()
        return draw < self._probability


class _FaultInjectingBase:
    """Call counting and fault application shared by both proxies."""

    def __init__(self, inner, schedules: FaultSchedule | Sequence[FaultSchedule]) -> None:
        if isinstance(schedules, FaultSchedule):
            schedules = [schedules]
        self._inner = inner
        self._schedules = list(schedules)
        #: Total calls observed (faulted or not).
        self.calls = 0
        #: Calls on which at least one fault fired.
        self.faults_fired = 0
        self.preprocessing_seconds = getattr(inner, "preprocessing_seconds", 0.0)

    @property
    def inner(self):
        """The wrapped estimator."""
        return self._inner

    def _apply(self, compute):
        """Run one call through the fault schedules."""
        index = self.calls
        self.calls += 1
        fired = [s.fault for s in self._schedules if s.fires(index)]
        if fired:
            self.faults_fired += 1
        for fault in fired:
            if fault.kind == "raise":
                raise fault.error(fault.message)
        value = compute()
        for fault in fired:
            if fault.kind == "corrupt":
                value = fault.corrupt_value
        return value

    def storage_bytes(self) -> int:
        """Delegates to the wrapped estimator."""
        return self._inner.storage_bytes()


class FaultInjectingSelectEstimator(_FaultInjectingBase, SelectCostEstimator):
    """A select estimator proxy that injects scheduled faults."""

    def estimate(self, query: Point, k: int) -> float:
        """Delegate to the wrapped estimator through the fault schedules."""
        return self._apply(lambda: self._inner.estimate(query, k))


class FaultInjectingJoinEstimator(_FaultInjectingBase, JoinCostEstimator):
    """A join estimator proxy that injects scheduled faults."""

    def estimate(self, k: int) -> float:
        """Delegate to the wrapped estimator through the fault schedules."""
        return self._apply(lambda: self._inner.estimate(k))


# ----------------------------------------------------------------------
# Worker-level faults: process-boundary failures for the sharded
# serving tier.  Unlike the estimator proxies above — which corrupt a
# value *inside* one process — these kill, freeze, or slow an entire
# shard worker, so the supervisor's respawn / timeout / retry machinery
# can be exercised deterministically.
# ----------------------------------------------------------------------
WorkerFaultKind = Literal["crash", "hang", "slow"]


@dataclass(frozen=True, slots=True)
class WorkerFaultSpec:
    """One deterministic worker-process fault.

    Attributes:
        kind: ``"crash"`` (hard ``os._exit`` — the worker dies without
            cleanup, poisoning its pool), ``"hang"`` (sleep ``seconds``
            before answering; pick ``seconds`` past the serving deadline
            to simulate a wedged worker), or ``"slow"`` (sleep
            ``seconds`` then answer normally — a degraded-but-alive
            worker).
        shard: Shard the fault targets (``None`` = every shard).
        on_batch: 0-based index of the batch (chunk) the fault fires on
            within one worker process's lifetime (``None`` = every
            batch).
        incarnation: Which process incarnation of the shard worker the
            fault applies to — 0 (the default) faults only the original
            process, so a respawned worker serves cleanly (the
            "crash once mid-workload" scenario); ``None`` faults every
            incarnation (a permanently failing shard).
        seconds: Sleep duration for ``"hang"``/``"slow"`` faults.
        exit_code: Process exit code for ``"crash"`` faults.
    """

    kind: WorkerFaultKind
    shard: int | None = None
    on_batch: int | None = None
    incarnation: int | None = 0
    seconds: float = 0.05
    exit_code: int = 13

    def __post_init__(self) -> None:
        if self.kind not in ("crash", "hang", "slow"):
            raise ValueError(f"unknown worker fault kind {self.kind!r}")
        if self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")

    def matches(self, shard: int, batch_index: int, incarnation: int) -> bool:
        """Whether this fault fires for the given serving event."""
        if self.shard is not None and shard != self.shard:
            return False
        if self.on_batch is not None and batch_index != self.on_batch:
            return False
        if self.incarnation is not None and incarnation != self.incarnation:
            return False
        return True


@dataclass(frozen=True, slots=True)
class WorkerFaultPlan:
    """A picklable bundle of :class:`WorkerFaultSpec` entries.

    Shipped to shard workers through the pool ``initargs`` (it must
    pickle), and applied by the worker at the top of every batch.
    Faults fire by ``(shard, batch index, incarnation)`` — no wall
    clock, no randomness — so a replayed workload hits the same faults
    in the same places.
    """

    specs: tuple[WorkerFaultSpec, ...] = ()

    @classmethod
    def of(cls, *specs: WorkerFaultSpec) -> "WorkerFaultPlan":
        """Build a plan from individual specs."""
        return cls(specs=tuple(specs))

    def apply(self, shard: int, batch_index: int, incarnation: int) -> None:
        """Fire every matching fault (called inside the worker process).

        ``crash`` faults exit the process immediately; ``hang`` and
        ``slow`` faults sleep, then let the batch proceed.
        """
        for spec in self.specs:
            if not spec.matches(shard, batch_index, incarnation):
                continue
            if spec.kind == "crash":
                os._exit(spec.exit_code)
            time.sleep(spec.seconds)
