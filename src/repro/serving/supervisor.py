"""Worker supervision: deadlines, retries, respawn, circuit breaking.

The supervisor owns the robustness contract of the sharded tier.  Every
shard worker slot is one long-lived process with a pipe each way, and a
protocol round is driven by the thread that serves the chunk: it checks
out an idle worker per shard and sends each its payload
(:meth:`ShardSupervisor.send`), is free to do other work while the
shards serve, then waits on every pipe and process sentinel at once
(:meth:`ShardSupervisor.collect`).  Every attempt runs under:

* a **deadline** — the coordinator's remaining time budget is
  propagated into the worker (where it feeds
  :func:`~repro.resilience.fallback.budget_check`) *and* enforced
  coordinator-side as the wait's timeout, so even a worker that stops
  responding cannot stall the batch;
* **bounded retries with exponential backoff + jitter** — transient
  failures (a crashed worker, a blown budget) are retried up to
  ``max_retries`` times, never waiting past the remaining deadline;
* **automatic respawn** — a dead worker (EOF on its pipe, or its
  process sentinel), a hung one (no reply within the timeout) or one
  whose reply is not the one asked for (a stale sequence number, or a
  reply that does not fit its request) is terminated, and the slot's
  next request boots a fresh process with a bumped *incarnation*
  number, which the fault-injection plan uses to
  distinguish "crash once" from "permanently down";
* a **per-shard circuit breaker** (:class:`_TierHealth`) — after
  ``breaker_threshold`` consecutive chunk failures the shard is skipped
  for ``breaker_cooldown`` chunk attempts, so a dead shard costs one
  health check instead of a full retry ladder per chunk.

A shard that exhausts its retries (or meets an open breaker) is missing
from the round's answers (:meth:`ShardSupervisor.serve_chunk`, a round
of one, raises :class:`ShardUnavailable`); the coordinator degrades
those queries' answers (estimate-only or partial) instead of failing
the batch.

Workers never fork the coordinator: the supervisor respawns them from
coordinator threads, and forking a multi-threaded process is where
deadlocks live.  Workers are forked from multiprocessing's fork server
instead (plain ``spawn`` where there is none) — a small single-threaded
process of its own, so a worker starts from the same memory whatever
the coordinator's heap holds at that moment (a child of the coordinator
starts life with the coordinator's resident set as its peak, across
``exec`` too).  The server imports the worker module before it forks
any worker, is shared by every tier of the process and exits with it.
"""

from __future__ import annotations

import multiprocessing
import queue
import random
import select
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.resilience.faultinject import WorkerFaultPlan
from repro.serving.worker import (
    _serve_data_shard_chunk,
    _worker_main,
    _worker_ping,
    payload_bytes,
)

#: Default per-chunk timeout when no deadline bounds the batch.
DEFAULT_CHUNK_TIMEOUT = 30.0

#: Grace added to the wait timeout so a worker's own (typed)
#: BudgetExceededError wins the race against the coordinator's
#: untyped timeout when both fire around the same instant.
_TIMEOUT_GRACE = 0.1

#: Start method of the worker processes (see the module docstring).
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


class _TierHealth:
    """Supervision counters and circuit-breaker state for one shard.

    ``total_calls`` counts finished attempts.  Every mutation takes one
    internal lock: the counters are shared by every chunk thread of the
    tier, and unlocked ``+=`` cycles lose updates under contention.
    Reads of a single counter are plain (atomic) attribute reads.
    """

    __slots__ = (
        "attempts", "retries", "respawns", "timeouts", "total_failures", "total_calls",
        "consecutive_failures", "cooldown_remaining", "_lock",
    )

    def __init__(self) -> None:
        for name in self.__slots__[:-1]:
            setattr(self, name, 0)
        self._lock = threading.Lock()

    @property
    def circuit_open(self) -> bool:
        return self.cooldown_remaining > 0

    def record_attempt(self, retry: bool) -> None:
        with self._lock:
            self.attempts += 1
            self.retries += retry

    def record_success(self) -> None:
        with self._lock:
            self.total_calls += 1
            self.consecutive_failures = 0

    def record_failure(self, threshold: int, cooldown: int, respawn=False, timeout=False) -> None:
        with self._lock:
            self.total_calls += 1
            self.total_failures += 1
            self.respawns += respawn
            self.timeouts += timeout
            self.consecutive_failures += 1
            if self.consecutive_failures >= threshold:
                self.cooldown_remaining = cooldown

    def tick_skip(self) -> None:
        with self._lock:
            self.cooldown_remaining -= 1


class _WorkerLost(RuntimeError):
    """A worker's pipe broke, its process died, or its reply was stale."""


class _Worker:
    """One worker slot: its process, reply pipe's read end (``conn``) and
    request pipe's write end (``requests``), ``None`` until booted and after
    retirement, and ``seq``, the last request's number, which its reply echoes."""

    __slots__ = ("incarnation", "process", "conn", "requests", "seq")

    def __init__(self) -> None:
        self.incarnation, self.process, self.conn, self.requests, self.seq = -1, None, None, None, 0


class _Poller(threading.local):
    """A thread's persistent ``select.poll``: the pipe and process sentinel
    of each worker its rounds have in flight (``fds``: fd -> worker), each
    registered when its attempt is sent and unregistered when it settles
    or its worker is retired, so an idle worker's pipe is never polled."""

    def __init__(self) -> None:
        self.poll, self.fds = select.poll(), {}

    def watch(self, worker: _Worker) -> tuple[int, int]:
        fds = (worker.conn.fileno(), worker.process.sentinel)
        for fd in fds:
            self.poll.register(fd, select.POLLIN)
            self.fds[fd] = worker
        return fds

    def unwatch(self, fds: tuple[int, int]) -> None:
        for fd in fds:
            self.poll.unregister(fd)
            del self.fds[fd]


class ShardWorkerHandle:
    """Coordinator-side lifecycle of one shard's worker processes.

    The shard has ``workers`` slots, each one long-lived process with
    a pipe each way, kept in an idle queue: a round checks a slot out,
    sends on its pipe, and checks it back in only after the reply has
    been read (or the slot was retired).  A slot boots lazily on its
    first request; :meth:`retire` terminates a crashed or hung process,
    and the slot's next request boots a fresh one with an incremented
    incarnation number (shipped to the worker initializer, where the
    fault plan consults it).

    Every worker is initialized with the shard's payload (its blocks'
    ids, counts and rows for ``_init_data_shard_worker``) and serves the
    gather and scan rounds through ``_serve_data_shard_chunk``.
    ``spawned`` counts worker processes ever booted — the long-lived
    tier benchmarks and the scale-smoke job assert it stays at one per
    slot.
    """

    def __init__(
        self, shard_id: int, payload: dict, fault_plan: WorkerFaultPlan | None = None, workers=1
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.shard_id = int(shard_id)
        self.spawned = 0
        self._fault_plan = fault_plan
        self._init_payload = payload
        self.shipped_bytes = payload_bytes(payload)
        self._slots = [_Worker() for __ in range(int(workers))]
        self._idle: queue.SimpleQueue = queue.SimpleQueue()
        for worker in self._slots:
            self._idle.put(worker)
        # Terminated processes close() still has to join.
        self._retired: list = []
        self._lock = threading.Lock()

    def _boot(self, worker: _Worker) -> None:
        """Start a fresh process in ``worker``'s slot (not yet initialized)."""
        context = multiprocessing.get_context(_START_METHOD)
        if _START_METHOD == "forkserver":  # read once, when the server starts
            context.set_forkserver_preload(["repro.serving.worker"])
        # One pipe each way: cheaper to write and to wake than a socket pair.
        (conn, replies), (requests, sender) = context.Pipe(False), context.Pipe(False)
        process = context.Process(target=_worker_main, args=(requests, replies), daemon=True)
        process.start()
        requests.close()
        replies.close()
        worker.incarnation += 1
        worker.process, worker.conn, worker.requests, worker.seq = process, conn, sender, 0
        with self._lock:
            self.spawned += 1

    def checkout(self, timeout: float | None) -> _Worker | None:
        """An idle worker slot, or ``None`` if none frees up within ``timeout``."""
        try:
            return self._idle.get(timeout=timeout)
        except queue.Empty:
            return None

    def checkin(self, worker: _Worker | None) -> None:
        """Return a slot whose reply has been read (or that was retired)."""
        if worker is not None:
            self._idle.put(worker)

    def send(self, worker: _Worker, fn, *args) -> None:
        """Send one request ``fn(*args)``, booting the slot first if needed.

        A fresh process is sent its initializer arguments ahead of its
        first request.

        Raises:
            _WorkerLost: The pipe is broken (the process died).
        """
        if worker.process is None:
            self._boot(worker)
        try:
            if worker.seq == 0:
                worker.requests.send(
                    (self.shard_id, worker.incarnation, self._init_payload, self._fault_plan)
                )
            worker.seq += 1
            worker.requests.send((worker.seq, fn, args))
        except OSError as exc:
            raise _WorkerLost(f"worker crashed ({type(exc).__name__})") from exc

    def read(self, worker: _Worker) -> tuple[bool, object]:
        """Read the reply to the last request: ``(ok, result or exception)``.

        Raises:
            _WorkerLost: On EOF (the process died) or a reply that does
                not echo the last request's sequence number — never an
                answer to be trusted.
        """
        try:
            seq, ok, value = worker.conn.recv()
        except Exception as exc:  # noqa: BLE001 — EOF, a reset, a torn message
            raise _WorkerLost(f"worker crashed ({type(exc).__name__})") from exc
        if seq != worker.seq:
            raise _WorkerLost(f"stale reply (seq {seq}, expected {worker.seq})")
        return ok, value

    def call(self, fn, *args, timeout: float):
        """``fn(*args)`` on an idle worker, answered within ``timeout``."""
        worker = self.checkout(timeout)
        if worker is None:
            raise TimeoutError(f"shard {self.shard_id}: no idle worker within {timeout:.3f}s")
        try:
            return self._call(worker, timeout, fn, *args)
        finally:
            self.checkin(worker)

    def _call(self, worker: _Worker, timeout: float, fn, *args):
        """One request on a checked-out slot, answered within ``timeout``.

        Raises:
            _WorkerLost: The worker died or did not answer in time (it
                is retired).
            Exception: Whatever ``fn`` raised in the worker.
        """
        try:
            self.send(worker, fn, *args)
            if not worker.conn.poll(timeout):
                raise _WorkerLost(f"no answer within {timeout:.3f}s")
            ok, value = self.read(worker)
        except _WorkerLost:
            self.retire(worker)
            raise
        if not ok:
            raise value
        return value

    def spawn(self) -> Callable[[], None]:
        """Boot every worker slot now; returns the wait until each is live.

        The processes start here, without waiting for them; the returned
        function initializes and pings each one (a
        :func:`~repro.serving.worker._worker_ping`) — ``start()`` runs
        the coordinator's own set-up in between, so the two overlap.
        """
        workers = [self._idle.get() for __ in self._slots]
        for worker in workers:
            if worker.process is None:
                self._boot(worker)

        def wait_live() -> None:
            try:
                for worker in workers:
                    self._call(worker, DEFAULT_CHUNK_TIMEOUT, _worker_ping)
            finally:
                for worker in workers:
                    self.checkin(worker)

        return wait_live

    def retire(self, worker: _Worker) -> None:
        """Kill a slot's process (crashed, hung or out of step) for respawn.

        Terminates it outright — a hung worker would otherwise keep its
        CPU and memory until its sleep ends — but does not wait for it:
        this runs on the serving path.  :meth:`close` joins what is left.
        """
        if worker.conn is not None:
            worker.conn.close()
            worker.requests.close()
        process = worker.process
        worker.process = worker.conn = worker.requests = None
        if process is None:
            return
        try:
            process.terminate()
        except Exception:  # pragma: no cover - already-dead process
            pass
        with self._lock:
            self._retired = [p for p in self._retired if p.is_alive()]
            self._retired.append(process)

    def close(self) -> None:
        """Terminate every worker and leave nothing running.

        Waits until the processes of every slot and every retired
        incarnation are gone: :data:`_JOIN_TIMEOUT` for ``SIGTERM`` to
        work, then ``kill``.
        """
        for worker in self._slots:
            self.retire(worker)
        with self._lock:
            retired, self._retired = self._retired, []
        for process in retired:
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():  # pragma: no cover - a worker ignored SIGTERM
                process.kill()
                process.join(timeout=_JOIN_TIMEOUT)


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


class Round:
    """One protocol round to several shards, sent but not yet collected.

    Built by :meth:`ShardSupervisor.send` and finished by
    :meth:`ShardSupervisor.collect`.

    Attributes (by shard id):
        payloads: The payload sent to it.
        check: ``check(shard id, reply)`` — a reason the reply does not
            fit its payload, or ``None``; a misfit is a failed attempt.
        answers: Its reply, if it answered.
        log: Human-readable per-attempt outcomes.
        flights: ``(worker, attempt, timeout, expires, fds)`` of the
            attempt whose reply is unread (``fds``: its polled pipe and sentinel).
        retries: ``(due, attempt, worker)`` of a retry waiting out its
            backoff.
    """

    __slots__ = ("payloads", "deadline", "check", "answers", "log", "flights", "retries")

    def __init__(self, payloads: dict[int, dict], deadline: Deadline, check=None) -> None:
        # Ascending shard order: every round checks workers out in the
        # same order, so two rounds never wait on each other's workers.
        self.payloads = dict(sorted(payloads.items()))
        self.deadline = deadline
        self.check = check
        self.answers: dict[int, object] = {}
        self.log: dict[int, list[str]] = {sid: [] for sid in self.payloads}
        self.flights: dict[int, tuple] = {}
        self.retries: dict[int, tuple] = {}


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
        seed = self.policy.seed * 1_000_003
        self._rngs = {sid: random.Random(seed + sid) for sid in self._handles}
        self._poller = _Poller()

    def health(self, shard_id: int) -> _TierHealth:
        """One shard's supervision counters and breaker state."""
        return self._health[shard_id]

    def handle(self, shard_id: int) -> ShardWorkerHandle:
        """One shard's worker handle (the fault-injection seam)."""
        return self._handles[shard_id]

    def serve_chunk(
        self, shard_id: int, payload: dict, deadline: Deadline
    ) -> tuple[object, list[str]]:
        """Serve one chunk on one shard: a round of one.

        Returns:
            ``(answer, attempts)`` — the round's reply dict, plus the
            attempt log.

        Raises:
            ShardUnavailable: After the retry budget (or an open
                breaker, or an expired deadline) — the caller degrades.
        """
        round_ = self.send({shard_id: payload}, deadline)
        answers = self.collect(round_)
        if shard_id not in answers:
            raise ShardUnavailable(shard_id, round_.log[shard_id])
        return answers[shard_id], round_.log[shard_id]

    def send(
        self,
        payloads: dict[int, dict],
        deadline: Deadline,
        check: Callable[[int, object], str | None] | None = None,
    ) -> "Round":
        """Start a round: check out a worker per shard and send its payload.

        Returns at once; the workers serve while the caller does other
        work.  Every round sent must be finished with :meth:`collect`,
        which is what returns its workers to the idle queues.  A reply
        ``check`` refuses is never an answer: the worker is retired and
        the attempt retried, as for a stale reply.
        """
        round_ = Round(payloads, deadline, check)
        for sid in round_.payloads:
            self._attempt(round_, sid, 0, None)
        return round_

    def collect(self, round_: "Round") -> dict[int, object]:
        """Finish a round: read every reply, retrying failed shards.

        The thread that sent the round waits on every in-flight pipe and
        process sentinel at once with its persistent :class:`_Poller`,
        bounded by the earliest attempt timeout or due retry.

        Returns:
            ``{shard id: reply}`` for the shards that answered; a shard
            missing from it is unavailable (``round_.log`` says why).
        """
        flights, retries, poller = round_.flights, round_.retries, self._poller
        try:
            while flights or retries:
                now = time.perf_counter()
                for sid in [sid for sid, (due, *__) in retries.items() if due <= now]:
                    __, attempt, worker = retries.pop(sid)
                    self._attempt(round_, sid, attempt, worker)
                expiries = [f[3] for f in flights.values()] + [r[0] for r in retries.values()]
                wake = min(expiries, default=now)  # empty: the last retry gave up
                if not flights:
                    time.sleep(max(0.0, wake - now))
                    continue
                ready = {fd for fd, __ in poller.poll.poll(max(0.0, wake - now) * 1e3)}
                now = time.perf_counter()
                for sid, (worker, attempt, timeout, expires, fds) in list(flights.items()):
                    readable = fds[0] in ready
                    if readable or fds[1] in ready or now >= expires:
                        del flights[sid]
                        poller.unwatch(fds)
                    if readable or fds[1] in ready:
                        self._settle(round_, sid, worker, attempt, readable)
                    elif now >= expires:
                        hung = f"no answer within {timeout:.3f}s (worker hung; respawning)"
                        self._fail(round_, sid, attempt, worker, hung, respawn=True, timeout=True)
        finally:
            for flight in flights.values():
                poller.unwatch(flight[4])
        return round_.answers

    def _attempt(self, round_: "Round", sid: int, attempt: int, worker) -> None:
        """Send attempt ``attempt`` of ``sid``'s payload, or give the shard up.

        ``worker`` is the slot a retry keeps (``None``: check one out).
        """
        policy = self.policy
        handle = self._handles[sid]
        health = self._health[sid]
        log = round_.log[sid]
        if health.circuit_open:
            health.tick_skip()
            log.append("skipped (circuit open)")
            handle.checkin(worker)
            return
        remaining = round_.deadline.remaining()
        if remaining is not None and remaining <= 0:
            log.append("deadline exhausted")
            handle.checkin(worker)
            return
        timeout = min(policy.chunk_timeout, float("inf") if remaining is None else remaining)
        health.record_attempt(attempt > 0)
        if worker is None:
            worker = handle.checkout(timeout)
            if worker is None:
                idle = f"no idle worker within {timeout:.3f}s"
                self._fail(round_, sid, attempt, None, idle, timeout=True)
                return
        try:
            handle.send(
                worker, _serve_data_shard_chunk, dict(round_.payloads[sid], budget_seconds=timeout)
            )
        except _WorkerLost as lost:
            self._fail(round_, sid, attempt, worker, f"{lost}; respawning", respawn=True)
            return
        expires = time.perf_counter() + timeout + _TIMEOUT_GRACE
        round_.flights[sid] = (worker, attempt, timeout, expires, self._poller.watch(worker))

    def _settle(self, round_: "Round", sid: int, worker, attempt: int, readable: bool) -> None:
        """Take one shard's reply (or its worker's death) off the wire."""
        try:
            if not readable:
                raise _WorkerLost("worker crashed (process exited)")
            ok, value = self._handles[sid].read(worker)
        except _WorkerLost as lost:
            self._fail(round_, sid, attempt, worker, f"{lost}; respawning", respawn=True)
            return
        if not ok:
            self._fail(round_, sid, attempt, worker, f"{type(value).__name__}: {value}")
            return
        misfit = None if round_.check is None else round_.check(sid, value)
        if misfit is not None:
            self._fail(round_, sid, attempt, worker, f"{misfit}; respawning", respawn=True)
            return
        self._health[sid].record_success()
        round_.log[sid].append("ok")
        round_.answers[sid] = value
        self._handles[sid].checkin(worker)

    def _fail(self, round_, sid, attempt, worker, reason, *, respawn=False, timeout=False) -> None:
        """Count a failed attempt; schedule the retry or give the shard up.

        A crash, a hang or a stale reply retires the worker's process
        (``respawn``); a typed error keeps it.  The retry keeps the slot.
        """
        policy = self.policy
        self._health[sid].record_failure(
            policy.breaker_threshold, policy.breaker_cooldown, respawn, timeout
        )
        round_.log[sid].append(reason)
        if respawn:
            self._handles[sid].retire(worker)
        if attempt < policy.max_retries:
            due = time.perf_counter() + self._backoff(sid, attempt, round_.deadline)
            round_.retries[sid] = (due, attempt + 1, worker)
        else:
            self._handles[sid].checkin(worker)

    def _backoff(self, shard_id: int, attempt: int, deadline: Deadline) -> float:
        """The delay before the next attempt, never past the deadline."""
        policy = self.policy
        delay = min(policy.backoff_cap, policy.backoff_base * (2.0**attempt))
        delay *= 0.5 + self._rngs[shard_id].random()  # jitter in [0.5, 1.5)
        remaining = deadline.remaining()
        if remaining is not None:
            delay = min(delay, max(0.0, remaining - 1e-3))
        return delay

    def close(self) -> None:
        """Terminate every shard's workers."""
        for handle in self._handles.values():
            handle.close()
