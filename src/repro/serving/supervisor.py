"""Worker supervision: deadlines, retries, respawn, circuit breaking.

The supervisor owns the robustness contract of the sharded tier.  Every
chunk submitted to a shard runs under:

* a **deadline** — the coordinator's remaining time budget is
  propagated into the worker (where it feeds
  :func:`~repro.resilience.fallback.budget_check`) *and* enforced
  coordinator-side as a future timeout, so even a worker that stops
  responding cannot stall the batch;
* **bounded retries with exponential backoff + jitter** — transient
  failures (a crashed worker, a blown budget) are retried up to
  ``max_retries`` times, never sleeping past the remaining deadline;
* **automatic respawn** — a poisoned pool (``BrokenProcessPool`` after
  a worker death) or a hung worker (future timeout) is killed and
  recreated with a bumped *incarnation* number, which the
  fault-injection plan uses to distinguish "crash once" from
  "permanently down";
* a **per-shard circuit breaker** mirroring the fallback chains'
  :class:`~repro.resilience.fallback._TierHealth` — after
  ``breaker_threshold`` consecutive chunk failures the shard is skipped
  for ``breaker_cooldown`` chunk attempts, so a dead shard costs one
  health check instead of a full retry ladder per chunk.

A chunk that exhausts its retries (or meets an open breaker) raises
:class:`ShardUnavailable`; the coordinator catches it and degrades
those queries to its local fallback tier instead of failing the batch.

Worker pools never fork the coordinator: the supervisor respawns pools
from coordinator threads, and forking a multi-threaded process is where
deadlocks live.  Workers are forked from multiprocessing's fork server
instead (plain ``spawn`` where there is none) — a small single-threaded
process of its own, so a worker starts from the same memory whatever
the coordinator's heap holds at that moment (a child of the coordinator
starts life with the coordinator's resident set as its peak, across
``exec`` too).  The server is shared by every tier of the process and
exits with it.
"""

from __future__ import annotations

import multiprocessing
import random
import threading
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass

from repro.resilience.fallback import _TierHealth
from repro.resilience.faultinject import WorkerFaultPlan
from repro.serving.worker import (
    _init_data_shard_worker,
    _serve_data_shard_chunk,
    _worker_ping,
    payload_bytes,
)

#: Default per-chunk timeout when no deadline bounds the batch.
DEFAULT_CHUNK_TIMEOUT = 30.0

#: Grace added to the future timeout so a worker's own (typed)
#: BudgetExceededError wins the race against the coordinator's
#: untyped timeout when both fire around the same instant.
_TIMEOUT_GRACE = 0.1

#: Start method of the worker pools (see the module docstring).
_START_METHOD = (
    "forkserver" if "forkserver" in multiprocessing.get_all_start_methods() else "spawn"
)

#: How long ``close()`` waits for terminated workers before killing them.
_JOIN_TIMEOUT = 5.0


class ShardUnavailable(Exception):
    """A shard could not answer a chunk within its retry budget.

    Internal control flow between supervisor and coordinator — the
    coordinator translates it into degraded results (or, under strict
    serving, a :class:`~repro.resilience.errors.ShardExhaustedError`).

    Attributes:
        shard_id: The shard that failed.
        attempts: Human-readable per-attempt outcomes.
    """

    def __init__(self, shard_id: int, attempts: list[str]) -> None:
        super().__init__(
            f"shard {shard_id} unavailable after {len(attempts)} attempt(s): "
            + "; ".join(attempts)
        )
        self.shard_id = shard_id
        self.attempts = attempts


class Deadline:
    """A monotonic time budget threaded through the serving path."""

    __slots__ = ("_start", "budget_seconds")

    def __init__(self, budget_seconds: float | None) -> None:
        # Zero is a valid, already-expired budget — admission sheds it
        # as OverloadError instead of the caller crashing on a guard.
        if budget_seconds is not None and budget_seconds < 0:
            raise ValueError(f"budget_seconds must be >= 0, got {budget_seconds}")
        self._start = time.perf_counter()
        self.budget_seconds = budget_seconds

    @classmethod
    def after_ms(cls, deadline_ms: float | None) -> "Deadline":
        """A deadline ``deadline_ms`` from now (``None`` = unbounded)."""
        return cls(None if deadline_ms is None else deadline_ms / 1000.0)

    def remaining(self) -> float | None:
        """Seconds left, or ``None`` for an unbounded deadline."""
        if self.budget_seconds is None:
            return None
        return self.budget_seconds - (time.perf_counter() - self._start)

    def expired(self) -> bool:
        """Whether the budget is spent."""
        remaining = self.remaining()
        return remaining is not None and remaining <= 0


class _ShardCounters:
    """Lock-protected supervision counters for one shard."""

    __slots__ = ("attempts", "retries", "respawns", "timeouts", "failures", "_lock")

    def __init__(self) -> None:
        self.attempts = 0
        self.retries = 0
        self.respawns = 0
        self.timeouts = 0
        self.failures = 0
        self._lock = threading.Lock()

    def bump(self, **deltas: int) -> None:
        with self._lock:
            for name, delta in deltas.items():
                setattr(self, name, getattr(self, name) + delta)


class ShardWorkerHandle:
    """Coordinator-side lifecycle of one shard's worker pool.

    The pool is created lazily and replaced wholesale on
    :meth:`retire` — a crashed or hung incarnation is terminated, and
    the next :meth:`submit` spawns a fresh one with an incremented
    incarnation number (shipped to the worker initializer, where the
    fault plan consults it).

    Every worker is initialized with the shard's payload (the
    sub-snapshot bundle for ``_init_data_shard_worker``) and serves the
    merge protocol's rounds through ``_serve_data_shard_chunk``.
    ``spawned`` counts pool incarnations ever created — the
    long-lived-tier benchmarks and the scale-smoke job assert it stays
    at one.
    """

    def __init__(
        self,
        shard_id: int,
        payload: dict,
        fault_plan: WorkerFaultPlan | None = None,
        workers: int = 1,
        backend: str = "numpy",
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.shard_id = int(shard_id)
        self.incarnation = -1  # bumped to 0 on first spawn
        self.spawned = 0
        self._fault_plan = fault_plan
        self._workers = int(workers)
        self._backend = str(backend)
        self._init_payload = payload
        self.shipped_bytes = payload_bytes(payload)
        self._pool: ProcessPoolExecutor | None = None
        # Terminated incarnations close() still has to join.
        self._retired: list[list] = []
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self.incarnation += 1
                self.spawned += 1
                self._pool = ProcessPoolExecutor(
                    max_workers=self._workers,
                    mp_context=multiprocessing.get_context(_START_METHOD),
                    initializer=_init_data_shard_worker,
                    initargs=(
                        self.shard_id,
                        self.incarnation,
                        self._init_payload,
                        self._fault_plan,
                        self._backend,
                    ),
                )
            return self._pool

    def spawn(self) -> None:
        """Eagerly spawn the pool and wait for every worker to be live.

        One :func:`~repro.serving.worker._worker_ping` per worker slot,
        resolved before returning — ``start()`` uses this so the first
        served batch pays no spawn latency.
        """
        pool = self._ensure_pool()
        for future in [pool.submit(_worker_ping) for __ in range(self._workers)]:
            future.result()

    def submit(self, payload: dict):
        """Submit one chunk; returns ``(pool, future)``.

        The pool reference lets the caller :meth:`retire` exactly the
        incarnation it submitted to, even if another thread has already
        swapped in a replacement.
        """
        pool = self._ensure_pool()
        return pool, pool.submit(_serve_data_shard_chunk, payload)

    def submit_fn(self, fn, *args):
        """Submit an arbitrary function to the pool (telemetry RPCs)."""
        pool = self._ensure_pool()
        return pool, pool.submit(fn, *args)

    def retire(self, pool: ProcessPoolExecutor) -> None:
        """Kill one pool incarnation (hung or poisoned) for respawn.

        Terminates the worker processes outright — a hung worker would
        otherwise survive a plain ``shutdown`` and keep its CPU and
        memory until its sleep ends — but does not wait for them: this
        runs on the serving path.  :meth:`close` joins what is left.
        """
        with self._lock:
            if self._pool is pool:
                self._pool = None
        leftovers = _terminate(pool)
        with self._lock:
            self._retired = [left for left in self._retired if left[0].is_alive()]
            if leftovers:
                self._retired.append(leftovers)

    def close(self) -> None:
        """Terminate the current pool and leave nothing running.

        Waits until the worker processes of this and of every retired
        incarnation are gone, and their pools' manager threads with
        them: :data:`_JOIN_TIMEOUT` for ``SIGTERM`` to work, then
        ``kill``.
        """
        with self._lock:
            pool, self._pool = self._pool, None
            retired, self._retired = self._retired, []
        if pool is not None and (leftovers := _terminate(pool)):
            retired.append(leftovers)
        for manager, *processes in retired:
            # A pool's manager thread reaps its workers, then exits.
            manager.join(timeout=_JOIN_TIMEOUT)
            if manager.is_alive():  # pragma: no cover - a worker ignored SIGTERM
                for process in processes:
                    process.kill()
                manager.join(timeout=_JOIN_TIMEOUT)


def _terminate(pool: ProcessPoolExecutor) -> list:
    """Kill a pool's workers without waiting for them.

    Returns:
        ``[manager thread, *worker processes]`` — what is still to be
        joined (empty for a pool that never started a worker).
    """
    manager = getattr(pool, "_executor_manager_thread", None)
    processes = list((getattr(pool, "_processes", None) or {}).values())
    for process in processes:
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead process
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    return [manager, *processes] if manager is not None else []


@dataclass(frozen=True)
class SupervisionPolicy:
    """The supervisor's knobs, bundled for reuse across tiers.

    Attributes:
        max_retries: Extra attempts after the first failure of a chunk.
        backoff_base: First retry delay, seconds; attempt ``i`` waits
            ``backoff_base * 2**i`` (capped), times a jitter factor in
            ``[0.5, 1.5)`` drawn from a per-shard seeded RNG.
        backoff_cap: Upper bound on any single backoff sleep.
        breaker_threshold: Consecutive chunk failures that open a
            shard's circuit breaker.
        breaker_cooldown: Chunk attempts a tripped shard is skipped for.
        chunk_timeout: Per-attempt wall-clock bound when no deadline
            applies (a deadline tightens it, never loosens it).
        seed: Jitter RNG seed (deterministic backoff in tests).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 1.0
    breaker_threshold: int = 3
    breaker_cooldown: int = 8
    chunk_timeout: float = DEFAULT_CHUNK_TIMEOUT
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be >= 0")
        if self.chunk_timeout <= 0:
            raise ValueError(f"chunk_timeout must be positive, got {self.chunk_timeout}")


class ShardSupervisor:
    """Retry, respawn, and circuit-break chunk serving across shards."""

    def __init__(
        self,
        handles: dict[int, ShardWorkerHandle],
        policy: SupervisionPolicy | None = None,
    ) -> None:
        if not handles:
            raise ValueError("a supervisor needs at least one shard handle")
        self._handles = dict(handles)
        #: Supervised shard ids, ascending.
        self.shard_ids: tuple[int, ...] = tuple(sorted(self._handles))
        self.policy = policy or SupervisionPolicy()
        self._health = {sid: _TierHealth() for sid in self._handles}
        self._counters = {sid: _ShardCounters() for sid in self._handles}
        self._rngs = {
            sid: random.Random(self.policy.seed * 1_000_003 + sid)
            for sid in self._handles
        }

    def health(self, shard_id: int) -> _TierHealth:
        """One shard's breaker state (monitoring and tests)."""
        return self._health[shard_id]

    def counters(self, shard_id: int) -> _ShardCounters:
        """One shard's supervision counters."""
        return self._counters[shard_id]

    def handle(self, shard_id: int) -> ShardWorkerHandle:
        """One shard's pool handle (the fault-injection seam)."""
        return self._handles[shard_id]

    def serve_chunk(
        self, shard_id: int, payload: dict, deadline: Deadline
    ) -> tuple[object, list[str]]:
        """Serve one chunk on one shard under the full supervision contract.

        Returns:
            ``(answer, attempts)`` — the round's reply dict, plus the
            attempt log.

        Raises:
            ShardUnavailable: After the retry budget (or an open
                breaker, or an expired deadline) — the caller degrades.
        """
        policy = self.policy
        handle = self._handles[shard_id]
        health = self._health[shard_id]
        counters = self._counters[shard_id]
        attempts: list[str] = []
        for attempt in range(policy.max_retries + 1):
            if health.circuit_open:
                health.tick_skip()
                attempts.append("skipped (circuit open)")
                raise ShardUnavailable(shard_id, attempts)
            remaining = deadline.remaining()
            if remaining is not None and remaining <= 0:
                attempts.append("deadline exhausted")
                raise ShardUnavailable(shard_id, attempts)
            timeout = (
                policy.chunk_timeout
                if remaining is None
                else min(remaining, policy.chunk_timeout)
            )
            counters.bump(attempts=1, retries=1 if attempt else 0)
            pool = future = None
            try:
                pool, future = handle.submit(
                    dict(payload, budget_seconds=timeout)
                )
                answer = future.result(timeout=timeout + _TIMEOUT_GRACE)
            except BrokenExecutor:
                counters.bump(respawns=1, failures=1)
                health.record_failure(policy.breaker_threshold, policy.breaker_cooldown)
                attempts.append("worker crashed (pool poisoned; respawning)")
                if pool is not None:
                    handle.retire(pool)
            except FutureTimeoutError:
                counters.bump(respawns=1, timeouts=1, failures=1)
                health.record_failure(policy.breaker_threshold, policy.breaker_cooldown)
                attempts.append(
                    f"no answer within {timeout:.3f}s (worker hung; respawning)"
                )
                if future is not None:
                    future.cancel()
                if pool is not None:
                    handle.retire(pool)
            except Exception as exc:  # noqa: BLE001 — isolation is the point
                counters.bump(failures=1)
                health.record_failure(policy.breaker_threshold, policy.breaker_cooldown)
                attempts.append(f"{type(exc).__name__}: {exc}")
            else:
                health.record_success()
                attempts.append("ok")
                return answer, attempts
            self._backoff(shard_id, attempt, deadline)
        raise ShardUnavailable(shard_id, attempts)

    def _backoff(self, shard_id: int, attempt: int, deadline: Deadline) -> None:
        """Sleep before the next attempt, never past the deadline."""
        policy = self.policy
        delay = min(policy.backoff_cap, policy.backoff_base * (2.0**attempt))
        delay *= 0.5 + self._rngs[shard_id].random()  # jitter in [0.5, 1.5)
        remaining = deadline.remaining()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining - 1e-3))
        if delay > 0:
            time.sleep(delay)

    def close(self) -> None:
        """Shut every shard pool down."""
        for handle in self._handles.values():
            handle.close()
