"""Simulation-as-a-service: the fault-tolerant async front door.

:class:`SimulationService` serves what-if queries (step-time models,
chaos runs, cluster scenarios — see :mod:`repro.service.executors`)
under production traffic and stays correct when clients misbehave and
workers die:

* **Bounded concurrency.**  A fixed worker pool executes at most
  ``concurrency`` jobs at once; everything else waits in a queue of at
  most ``queue_depth`` — never an unbounded backlog.
* **Backpressure, typed.**  A full queue rejects with
  :class:`~repro.service.spec.Overloaded`; a client that outruns its
  token bucket gets :class:`~repro.service.spec.RateLimited`; a job
  that ages past its deadline (queued or just-finished) gets
  :class:`~repro.service.spec.DeadlineExceeded`.  Every submission is
  accounted: ``submitted == completed + typed rejections + failures``
  is an invariant the tests pin.
* **Heavy jobs off the interpreter lock.**  Each worker thread has a
  forked :class:`~repro.service.pool.WorkerProcess`; the job kinds in
  :data:`~repro.service.executors.FORKED_JOBS` (full chaos runs, cluster
  scenarios) execute there, so light jobs keep flowing on the threads
  while they run.  The child returns the payload or the executor's
  exception, and the job's telemetry, which the worker merges here.
* **Crash tolerance.**  Worker crashes (injected seed-deterministically
  by :class:`~repro.service.pool.CrashPlan`, or a forked process that
  dies mid-job, which is re-forked) retry on the shared
  :class:`~repro.resilience.faults.RetryPolicy` — exponential backoff,
  deterministic per-job jitter.  Exhausted budgets raise
  :class:`~repro.service.spec.JobFailed` and dump a flight-recorder
  postmortem bundle, exactly like a terminal chip death would.
* **Circuit breaking.**  Per-job-class breakers trip after consecutive
  failures; while open, chaos jobs degrade to accounting-only mode and
  non-degradable classes shed with ``Overloaded``.  After the cool-down
  a single half-open probe recovers the class without a restart.
* **Content-addressed caching.**  Results are cached by the SHA-256 of
  the canonicalized spec; identical configs never re-simulate, and a
  hit returns a bit-identical payload without consuming a worker slot.
"""

from __future__ import annotations

import logging
import pickle
import threading
import time
from dataclasses import dataclass, field

from repro import telemetry as _telemetry
from repro.refuse import at_least, count, non_negative, positive, proper_fraction
from repro.resilience.faults import RetryPolicy
from repro.seeding import derive_subseed
from repro.service.cache import ResultCache
from repro.service.executors import DEGRADABLE_KINDS, FORKED_JOBS, execute
from repro.service.limits import CircuitBreaker, TokenBucket
from repro.service.pool import CrashPlan, JobHandle, WorkerPool, WorkerProcess
from repro.service.spec import (
    DeadlineExceeded,
    JobFailed,
    Overloaded,
    RateLimited,
    ServiceError,
    SimJob,
    WorkerCrashError,
)

logger = logging.getLogger("repro.service")

#: Default worker retry budget: no detection timeout (a crash is loud),
#: 3 attempts backing off from 2 ms with 25% deterministic jitter.
DEFAULT_SERVICE_RETRY = RetryPolicy(
    timeout_s=0.0,
    max_attempts=3,
    backoff_s=2e-3,
    backoff_factor=2.0,
    jitter_frac=0.25,
)


def _picklable(exc: Exception) -> Exception:
    """``exc`` if it survives a pickle round trip, else a ``ServiceError``
    carrying its type name and message."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: BLE001 — any failure means it cannot cross
        return ServiceError(f"{type(exc).__name__}: {exc}")
    return exc


def _serve_forked(conn) -> None:
    """A forked worker's loop: run each ``(job, degraded, telemetry flag)``
    request and reply ``(payload, error, telemetry)``.

    ``execute`` is looked up per request, so an executor replaced before
    the service started runs here as it does on the worker threads.  Each
    job records its telemetry from a reset state, under the flag the
    service sent, and the reply carries it whole (:func:`repro.telemetry.
    export`); nothing when the flag is off.
    """
    while True:
        try:
            request = conn.recv()
        except EOFError:
            return
        if request is None:
            return
        job, degraded, enabled = request
        _telemetry.enabled = enabled
        _telemetry.reset()
        payload = error = None
        try:
            payload = execute(job, degraded=degraded)
        except Exception as exc:  # noqa: BLE001 — the service decides
            error = _picklable(exc)
        conn.send((payload, error, _telemetry.export() if enabled else None))


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the job layer: concurrency, shedding, retries, cache.

    ``rate_capacity`` / ``rate_refill_per_s`` configure each client's
    token bucket (burst / sustained).  ``cache_entries=0`` disables the
    result cache (the load experiment does this so every request costs
    real work).  ``crash_rate`` / ``poisoned`` / ``crashes`` feed the
    seed-deterministic :class:`~repro.service.pool.CrashPlan`.
    """

    concurrency: int = 4
    queue_depth: int = 64
    rate_capacity: float = 64.0
    rate_refill_per_s: float = 64.0
    retry_policy: RetryPolicy = DEFAULT_SERVICE_RETRY
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    cache_entries: int = 256
    default_deadline_s: float | None = None
    seed: int = 0
    crash_rate: float = 0.0
    poisoned: tuple[str, ...] = ()
    crashes: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        count("concurrency", self.concurrency)
        count("queue_depth", self.queue_depth)
        at_least("rate_capacity", self.rate_capacity, 1)
        non_negative("rate_refill_per_s", self.rate_refill_per_s)
        count("breaker_threshold", self.breaker_threshold)
        non_negative("breaker_cooldown_s", self.breaker_cooldown_s)
        count("cache_entries", self.cache_entries, minimum=0)
        proper_fraction("crash_rate", self.crash_rate)
        if self.default_deadline_s is not None:
            positive("default_deadline_s", self.default_deadline_s)


@dataclass
class ServiceStats:
    """Monotonic service-lifetime totals (mirrored on ``service_*`` counters)."""

    submitted: int = 0
    completed: int = 0
    cache_hits: int = 0
    degraded: int = 0
    retries: int = 0
    worker_crashes: int = 0
    failed: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    @property
    def rejected_total(self) -> int:
        return sum(self.rejected.values())

    def accounted(self) -> bool:
        """No silent loss: every submission completed, failed, or rejected.

        (Holds once every outstanding handle resolved.)
        """
        return self.submitted == self.completed + self.failed + self.rejected_total


class SimulationService:
    """The async job layer over the simulation stack.  See module docstring.

    ``clock`` must be monotonic (deadlines, latencies, breaker cool-downs
    run on it); ``sleep`` is only used for retry backoff.  Both are
    injectable so tests can freeze time.
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self._clock = clock
        self._sleep = sleep
        self.stats = ServiceStats()
        self.cache = (
            ResultCache(self.config.cache_entries)
            if self.config.cache_entries > 0
            else None
        )
        self.crash_plan = CrashPlan(
            seed=self.config.seed,
            crash_rate=self.config.crash_rate,
            poisoned=self.config.poisoned,
            crashes=self.config.crashes,
        )
        self.breakers: dict[str, CircuitBreaker] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self.pool = WorkerPool(
            self.config.concurrency, self.config.queue_depth, self._execute
        )
        #: Worker ``i``'s forked process, for the jobs in ``FORKED_JOBS``.
        self._processes: list[WorkerProcess] = []
        self._started = False

    # --- lifecycle -----------------------------------------------------------

    def start(self) -> "SimulationService":
        """Fork one process per worker, then start the worker threads.

        Forking first means no worker thread can hold a lock the children
        inherit.  A stopped service starts again with fresh threads and
        processes.
        """
        if self._started:
            return self
        self._processes = [
            WorkerProcess(_serve_forked) for _ in range(self.config.concurrency)
        ]
        self.pool.start()
        self._started = True
        logger.info(
            "service started: %d workers, queue depth %d, cache %s",
            self.config.concurrency, self.config.queue_depth,
            "off" if self.cache is None else self.cache.max_entries,
        )
        return self

    def stop(self) -> None:
        """Drain the worker threads, then stop and join every process."""
        self.pool.stop()
        for process in self._processes:
            process.close()
        self._processes = []
        self._started = False

    def __enter__(self) -> "SimulationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # --- submission (the front door) ----------------------------------------

    def breaker(self, kind: str) -> CircuitBreaker:
        with self._lock:
            br = self.breakers.get(kind)
            if br is None:
                br = self.breakers[kind] = CircuitBreaker(
                    self.config.breaker_threshold,
                    self.config.breaker_cooldown_s,
                    clock=self._clock,
                )
            return br

    def _bucket(self, client: str) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = self._buckets[client] = TokenBucket(
                    self.config.rate_capacity,
                    self.config.rate_refill_per_s,
                    clock=self._clock,
                )
            return bucket

    def _reject(self, handle: JobHandle, exc: ServiceError, where: str) -> None:
        reason = getattr(exc, "reason", "failed")
        with self._lock:
            self.stats.rejected[reason] = self.stats.rejected.get(reason, 0) + 1
        if _telemetry.enabled:
            _telemetry.metrics.counter("service_rejected", reason=reason).inc()
        _telemetry.flight_recorder.record(
            "service", "rejected",
            job=handle.job.label, client=handle.client,
            reason=reason, where=where,
        )
        handle._resolve(None, exc)

    def submit(
        self,
        job: SimJob,
        client: str = "default",
        deadline_s: float | None = None,
    ) -> JobHandle:
        """Admit one job, or raise a typed rejection synchronously.

        Admission order: per-client token bucket (``RateLimited``), then
        the content-addressed cache (a hit resolves immediately without
        touching the queue), then queue depth (``Overloaded``).  The
        returned handle resolves to a payload or to a typed error.
        """
        if not self._started:
            raise ServiceError("service is not started")
        now = self._clock()
        if deadline_s is None:
            deadline_s = (
                job.deadline_s
                if job.deadline_s is not None
                else self.config.default_deadline_s
            )
        if deadline_s is not None and deadline_s != job.deadline_s:
            job = job.with_deadline(deadline_s)
        handle = JobHandle(job, client, now)
        with self._lock:
            self.stats.submitted += 1
        if _telemetry.enabled:
            _telemetry.metrics.counter("service_submitted", kind=job.kind).inc()

        if not self._bucket(client).try_acquire():
            exc = RateLimited(
                f"client {client!r} exceeded its rate limit "
                f"({self.config.rate_refill_per_s}/s sustained)"
            )
            self._reject(handle, exc, where="submit")
            raise exc

        if self.cache is not None:
            cached = self.cache.get(job.content_key)
            if cached is not None:
                handle.cached = True
                handle.latency_s = self._clock() - now
                with self._lock:
                    self.stats.completed += 1
                    self.stats.cache_hits += 1
                if _telemetry.enabled:
                    _telemetry.metrics.counter(
                        "service_completed", kind=job.kind
                    ).inc()
                handle._resolve(cached, None)
                return handle

        if not self.pool.try_enqueue(handle):
            exc = Overloaded(
                f"queue at depth {self.config.queue_depth}; shedding"
            )
            self._reject(handle, exc, where="submit")
            raise exc
        return handle

    # --- execution (worker side) --------------------------------------------

    def _expired(self, handle: JobHandle) -> bool:
        deadline = handle.job.deadline_s
        return (
            deadline is not None
            and self._clock() - handle.submitted_at > deadline
        )

    def _run(self, job: SimJob, degraded: bool, worker: int, attempt: int) -> dict:
        """One attempt at ``job``: on this thread, or in worker ``worker``'s
        process for the jobs in ``FORKED_JOBS``.

        A process job's telemetry is merged here and its executor's
        exception re-raised; a process that died is re-forked and the
        attempt raises :class:`WorkerCrashError`.
        """
        if (job.kind, degraded) not in FORKED_JOBS:
            return execute(job, degraded=degraded)
        process = self._processes[worker]
        try:
            payload, error, exported = process.call(
                (job, degraded, _telemetry.enabled)
            )
        except (EOFError, OSError):
            process.restart()
            raise WorkerCrashError(worker, job.label, attempt) from None
        if exported is not None:
            _telemetry.merge(exported)
        if error is not None:
            raise error
        return payload

    def _execute(self, handle: JobHandle, worker: int) -> None:
        """Run one dequeued job on ``worker`` and resolve its handle.

        Deadline, breaker, then up to ``retry_policy.max_attempts``
        attempts; a success is cached (unless degraded) and resolved.  The
        job's backoff key, ``derive_subseed(seed, "service-retry",
        label)``, is derived when its first retry sleeps: a job that
        succeeds on its first attempt derives nothing.
        """
        job = handle.job
        if self._expired(handle):
            self._reject(
                handle,
                DeadlineExceeded(
                    f"job {job.label!r} aged out in queue "
                    f"(deadline {job.deadline_s}s)"
                ),
                where="dequeue",
            )
            return

        breaker = self.breaker(job.kind)
        degraded = False
        if not breaker.allow():
            if job.kind in DEGRADABLE_KINDS:
                degraded = True
                with self._lock:
                    self.stats.degraded += 1
                if _telemetry.enabled:
                    _telemetry.metrics.counter(
                        "service_degraded_runs", kind=job.kind
                    ).inc()
            else:
                self._reject(
                    handle,
                    Overloaded(
                        f"circuit open for job class {job.kind!r}; shedding"
                    ),
                    where="breaker",
                )
                return
        handle.degraded = degraded

        policy = self.config.retry_policy
        retry_key: int | None = None
        payload: dict | None = None
        error: ServiceError | None = None
        trips_before = breaker.trips
        for attempt in range(1, policy.max_attempts + 1):
            handle.attempts = attempt
            try:
                if self.crash_plan.should_crash(job.label, attempt):
                    raise WorkerCrashError(worker, job.label, attempt)
                payload = self._run(job, degraded, worker, attempt)
            except WorkerCrashError as crash:
                with self._lock:
                    self.stats.worker_crashes += 1
                if _telemetry.enabled:
                    _telemetry.metrics.counter("service_worker_crashes").inc()
                _telemetry.flight_recorder.record(
                    "service", "worker_crash",
                    job=job.label, worker=worker, attempt=attempt,
                )
                logger.warning("%s", crash)
                if attempt >= policy.max_attempts:
                    error = JobFailed(job, attempt, cause=str(crash))
                    break
                with self._lock:
                    self.stats.retries += 1
                if _telemetry.enabled:
                    _telemetry.metrics.counter("service_retries").inc()
                if retry_key is None:
                    retry_key = derive_subseed(
                        self.config.seed, "service-retry", job.label
                    )
                self._sleep(policy.delay_after(attempt, key=retry_key))
                continue
            except Exception as exc:  # noqa: BLE001 — poisoned spec, no retry
                # Execution is deterministic: the same spec fails the same
                # way every time, so retrying burns budget for nothing.
                error = JobFailed(
                    job, attempt, cause=f"{type(exc).__name__}: {exc}"
                )
            break

        if error is not None:
            if not degraded:
                breaker.record_failure()
                if breaker.trips > trips_before:
                    if _telemetry.enabled:
                        _telemetry.metrics.counter(
                            "service_breaker_trips", kind=job.kind
                        ).inc()
                    _telemetry.flight_recorder.record(
                        "service", "breaker_trip",
                        job_kind=job.kind, after_attempts=handle.attempts,
                    )
                    logger.warning(
                        "circuit for %r tripped open after %d consecutive "
                        "failures", job.kind, breaker.failure_threshold,
                    )
            with self._lock:
                self.stats.failed += 1
            if _telemetry.enabled:
                _telemetry.metrics.counter(
                    "service_job_failures", kind=job.kind
                ).inc()
            # Terminal: dump the preceding timeline exactly as a chip death
            # would, then hand the typed failure to the client.
            _telemetry.on_terminal_failure(
                error, origin="service.job_failed", job=job.label,
                attempts=handle.attempts,
            )
            handle._resolve(None, error)
            return

        assert payload is not None
        if not degraded:
            recoveries_before = breaker.recoveries
            breaker.record_success()
            if breaker.recoveries > recoveries_before:
                if _telemetry.enabled:
                    _telemetry.metrics.counter(
                        "service_breaker_recoveries", kind=job.kind
                    ).inc()
                logger.info("circuit for %r closed after probe", job.kind)

        if self._expired(handle):
            self._reject(
                handle,
                DeadlineExceeded(
                    f"job {job.label!r} finished after its deadline "
                    f"({job.deadline_s}s); result discarded"
                ),
                where="post_execute",
            )
            return

        if self.cache is not None and not degraded:
            self.cache.put(job.content_key, payload)
        handle.latency_s = self._clock() - handle.submitted_at
        with self._lock:
            self.stats.completed += 1
        if _telemetry.enabled:
            _telemetry.metrics.counter("service_completed", kind=job.kind).inc()
            _telemetry.metrics.histogram("service_latency_seconds").observe(
                handle.latency_s
            )
        handle._resolve(payload, None)

    # --- introspection -------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-ready stats: totals, per-reason rejections, breakers, cache."""
        with self._lock:
            stats = {
                "submitted": self.stats.submitted,
                "completed": self.stats.completed,
                "cache_hits": self.stats.cache_hits,
                "degraded": self.stats.degraded,
                "retries": self.stats.retries,
                "worker_crashes": self.stats.worker_crashes,
                "failed": self.stats.failed,
                "rejected": dict(self.stats.rejected),
            }
        stats["queue_depth"] = self.pool.depth
        stats["breakers"] = {
            kind: br.state for kind, br in sorted(self.breakers.items())
        }
        if self.cache is not None:
            stats["cache"] = self.cache.stats()
        return stats
