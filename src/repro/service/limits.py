"""Admission control primitives: token buckets and circuit breakers.

Both objects run against an injectable monotonic ``clock`` so tests can
drive them deterministically (a frozen clock advances exactly when the
test says so); production uses :func:`time.monotonic`.

* :class:`TokenBucket` — per-client rate limiting at the front door.  A
  client starts with ``capacity`` tokens and regains ``refill_per_s``
  continuously; a submission costs one token, and an empty bucket is a
  :class:`~repro.service.spec.RateLimited` rejection, not a queue entry.
  Bursts up to ``capacity`` pass; sustained traffic is clamped to the
  refill rate — the Snippet 1 "rate limit errors imply concurrency
  should be reduced" failure mode becomes a *typed* signal instead.
* :class:`CircuitBreaker` — per-job-class failure isolation behind the
  queue.  ``failure_threshold`` consecutive worker failures trip it open
  for ``cooldown_s``; while open, degradable job classes fall back to
  their accounting-only executor and the rest shed with
  :class:`~repro.service.spec.Overloaded`.  After the cool-down the
  breaker goes **half-open**: one probe job runs in full mode, and its
  outcome closes or re-opens the circuit — recovery never needs a
  restart.
"""

from __future__ import annotations

import threading
import time

from repro.refuse import at_least, count, non_negative

#: Breaker states (plain strings so telemetry/tests stay readable).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class TokenBucket:
    """Classic token bucket: ``capacity`` burst, ``refill_per_s`` sustained.

    Thread-safe; ``try_acquire`` never blocks (the service sheds instead
    of queueing rate-limited work — unbounded queueing is exactly what
    this layer exists to prevent).
    """

    def __init__(
        self,
        capacity: float,
        refill_per_s: float,
        clock=time.monotonic,
    ) -> None:
        self.capacity = float(at_least("capacity", capacity, 1))
        self.refill_per_s = float(non_negative("refill_per_s", refill_per_s))
        self._clock = clock
        self._tokens = float(capacity)
        self._last = clock()
        self._lock = threading.Lock()

    def _refill_locked(self) -> None:
        now = self._clock()
        elapsed = max(0.0, now - self._last)
        self._last = now
        self._tokens = min(self.capacity, self._tokens + elapsed * self.refill_per_s)

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Take ``tokens`` if available; ``False`` means rate-limited."""
        with self._lock:
            self._refill_locked()
            if self._tokens >= tokens:
                self._tokens -= tokens
                return True
            return False

    @property
    def tokens(self) -> float:
        """Current token count (after refill) — for tests and stats."""
        with self._lock:
            self._refill_locked()
            return self._tokens


class CircuitBreaker:
    """Consecutive-failure circuit breaker for one job class.

    State machine::

        CLOSED --(threshold consecutive failures)--> OPEN
        OPEN   --(cooldown elapsed, next allow())--> HALF_OPEN (one probe)
        HALF_OPEN --(probe success)--> CLOSED
        HALF_OPEN --(probe failure)--> OPEN (cooldown restarts)

    ``allow()`` answers "may the next job of this class run in full
    mode?" — ``False`` while open (the caller degrades or sheds) and for
    every job but the single probe while half-open.  Success/failure
    reports come from the worker after each completed attempt sequence.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=time.monotonic,
    ) -> None:
        self.failure_threshold = count("failure_threshold", failure_threshold)
        self.cooldown_s = non_negative("cooldown_s", cooldown_s)
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self.trips = 0
        self.recoveries = 0

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open_locked()
            return self._state

    def _maybe_half_open_locked(self) -> None:
        if (
            self._state == OPEN
            and self._clock() - self._opened_at >= self.cooldown_s
        ):
            self._state = HALF_OPEN
            self._probe_in_flight = False

    def allow(self) -> bool:
        """May the next job run full-mode?  Claims the probe when half-open."""
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == CLOSED:
                return True
            if self._state == HALF_OPEN and not self._probe_in_flight:
                self._probe_in_flight = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._maybe_half_open_locked()
            if self._state == HALF_OPEN:
                self.recoveries += 1
            self._state = CLOSED
            self._probe_in_flight = False
            self._consecutive_failures = 0

    def record_failure(self) -> None:
        with self._lock:
            self._maybe_half_open_locked()
            self._consecutive_failures += 1
            if self._state == HALF_OPEN or (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._state = OPEN
                self._opened_at = self._clock()
                self._probe_in_flight = False
                self.trips += 1
