"""Worker pool plumbing: job handles, crash injection, worker threads.

The pool is the part of the service that actually runs jobs: a bounded
``queue.Queue`` feeds ``concurrency`` daemon threads, each executing one
job at a time through a callback supplied by the
:class:`~repro.service.service.SimulationService` (which owns retries,
breakers, and the cache — the pool only owns threads and the queue).
A :class:`WorkerProcess` is the forked child a worker thread hands its
heavy jobs to, so their numerics run outside this process's interpreter
lock.

Crash injection (:class:`CrashPlan`) makes the service itself
chaos-testable: whether worker ``w``'s attempt ``k`` at job ``j`` dies
is a pure function of ``(seed, job label, attempt)`` through the same
:func:`~repro.seeding.derive_subseed` splitting rule the cluster
scheduler uses for its retry jitter — a seeded run replays the exact
same crashes regardless of thread scheduling, which is what lets tests
pin "this job crashes twice, then succeeds" behavior.
"""

from __future__ import annotations

import logging
import multiprocessing
import queue as _queue
import signal
import threading
import time

from repro.seeding import derive_subseed
from repro.service.spec import ServiceError, ServiceRejection, SimJob

logger = logging.getLogger("repro.service")

#: Sentinel that tells a worker thread to exit.
_STOP = object()


class JobHandle:
    """The client's view of one accepted job: block on it, get the outcome.

    Exactly one of ``payload`` / ``error`` is set when done.  ``result()``
    returns the payload or raises the typed error; ``outcome()`` is the
    non-raising form the load tests tabulate (``("ok", payload)`` or
    ``(reason, None)``).
    """

    def __init__(self, job: SimJob, client: str, submitted_at: float) -> None:
        self.job = job
        self.client = client
        self.submitted_at = submitted_at
        self.latency_s: float | None = None
        self.cached = False
        self.degraded = False
        self.attempts = 0
        self._done = threading.Event()
        self._payload: dict | None = None
        self._error: ServiceError | None = None

    def done(self) -> bool:
        return self._done.is_set()

    def _resolve(self, payload: dict | None, error: ServiceError | None) -> None:
        self._payload = payload
        self._error = error
        self._done.set()

    def result(self, timeout: float | None = 30.0) -> dict:
        """The payload, or the typed rejection/failure, within ``timeout``."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job.label!r} still pending")
        if self._error is not None:
            raise self._error
        assert self._payload is not None
        return self._payload

    def outcome(self, timeout: float | None = 30.0) -> tuple[str, dict | None]:
        """``("ok", payload)``, ``(rejection reason, None)``, or ``("failed", None)``."""
        try:
            return "ok", self.result(timeout)
        except ServiceRejection as exc:
            return exc.reason, None
        except ServiceError:
            return "failed", None


class CrashPlan:
    """Seed-deterministic worker-crash schedule.

    ``crash_rate`` is the per-attempt crash probability, decided by
    hashing ``(seed, "service-crash", label, attempt)`` — independent of
    which worker thread picked the job up and of wall-clock timing.
    ``poisoned`` labels crash on *every* attempt (the retry budget
    exhausts and the job fails terminally, postmortem included);
    ``crashes`` pins explicit ``(label, attempt)`` pairs for targeted
    tests.
    """

    def __init__(
        self,
        seed: int = 0,
        crash_rate: float = 0.0,
        poisoned: tuple[str, ...] = (),
        crashes: tuple[tuple[str, int], ...] = (),
    ) -> None:
        self.seed = seed
        self.crash_rate = crash_rate
        self.poisoned = frozenset(poisoned)
        self.crashes = frozenset(crashes)

    def should_crash(self, label: str, attempt: int) -> bool:
        if label in self.poisoned or (label, attempt) in self.crashes:
            return True
        if self.crash_rate == 0.0:
            return False
        word = derive_subseed(self.seed, "service-crash", label, attempt)
        return word / 2**32 < self.crash_rate

    @property
    def active(self) -> bool:
        return bool(self.crash_rate or self.poisoned or self.crashes)


class WorkerPool:
    """Bounded queue + ``concurrency`` daemon threads running ``execute_fn``.

    ``execute_fn(handle, worker_index)`` must resolve the handle (it owns
    retries and error taxonomy); a worker that sees an unexpected escape
    from ``execute_fn`` resolves the handle itself rather than dying —
    one bad job must never take a worker slot out of service.
    """

    def __init__(
        self,
        concurrency: int,
        queue_depth: int,
        execute_fn,
        name: str = "repro-service",
    ) -> None:
        self.concurrency = concurrency
        self.queue: _queue.Queue = _queue.Queue(maxsize=queue_depth)
        self._execute_fn = execute_fn
        self._name = name
        self._threads: list[threading.Thread] = []
        self._started = False

    def start(self) -> None:
        """Start fresh worker threads (a stopped pool starts again)."""
        if self._started:
            return
        self._threads = [
            threading.Thread(
                target=self._worker_loop, args=(i,),
                name=f"{self._name}-worker-{i}", daemon=True,
            )
            for i in range(self.concurrency)
        ]
        for t in self._threads:
            t.start()
        self._started = True

    def stop(self, timeout: float = 5.0) -> None:
        """Drain-stop: workers finish queued jobs, then exit on the sentinel."""
        if not self._started:
            return
        for _ in self._threads:
            self.queue.put(_STOP)
        deadline = time.monotonic() + timeout
        for t in self._threads:
            t.join(max(0.0, deadline - time.monotonic()))
        self._started = False

    def try_enqueue(self, handle: JobHandle) -> bool:
        """Non-blocking put; ``False`` means the queue is at depth."""
        try:
            self.queue.put_nowait(handle)
            return True
        except _queue.Full:
            return False

    @property
    def depth(self) -> int:
        return self.queue.qsize()

    def _worker_loop(self, index: int) -> None:
        while True:
            item = self.queue.get()
            if item is _STOP:
                return
            try:
                self._execute_fn(item, index)
            except Exception as exc:  # noqa: BLE001 — worker must survive
                logger.exception(
                    "worker %d: execute_fn escaped on %s", index, item.job.label
                )
                if not item.done():
                    item._resolve(
                        None,
                        ServiceError(f"internal service error: {exc!r}"),
                    )


#: Held around every fork and the parent's close of the child's pipe end: a
#: child forked in between would hold that end open, and the parent would
#: never read EOF when the other child dies.
_FORK_LOCK = threading.Lock()


def _child_main(serve, conn, parent_end) -> None:
    # The parent's end is closed here so that its copy is the only one: the
    # child reads EOF once the parent is gone.
    parent_end.close()
    # The parent decides when its workers stop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    serve(conn)


class WorkerProcess:
    """One forked child process serving requests over a pipe.

    The child runs ``serve(conn)``, which should return when ``conn.recv()``
    reads ``None`` or raises ``EOFError``.  :meth:`call` sends one request
    and returns the reply; when the child has died it raises ``EOFError`` or
    ``OSError`` instead, and :meth:`restart` forks a fresh child.  The
    ``"fork"`` start method is used, so the child starts with the parent's
    modules and state as they are at the fork.
    """

    def __init__(self, serve) -> None:
        self._serve = serve
        self._closed = False
        self._fork()

    def _fork(self) -> None:
        context = multiprocessing.get_context("fork")
        with _FORK_LOCK:
            conn, child_end = context.Pipe()
            self.process = context.Process(
                target=_child_main, args=(self._serve, child_end, conn),
                name="repro-service-process", daemon=True,
            )
            self.process.start()
            child_end.close()
        self.conn = conn

    def call(self, request):
        """Send ``request`` and wait for the child's reply."""
        self.conn.send(request)
        return self.conn.recv()

    def restart(self) -> None:
        """Reap the child and, unless :meth:`close` ran, fork another."""
        self.conn.close()
        if self.process.is_alive():
            self.process.kill()
        self.process.join()
        if not self._closed:
            self._fork()

    def close(self) -> None:
        """Ask the child to exit, then join it (killed after 5 s)."""
        self._closed = True
        try:
            self.conn.send(None)
        except OSError:  # the child is already gone
            pass
        self.conn.close()
        self.process.join(5.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
