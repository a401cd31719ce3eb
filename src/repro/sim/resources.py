"""Shared resources for simulation processes: servers, queues, and links.

* :class:`Resource` — a counted server with FIFO admission (e.g. CPU cores
  of an input-pipeline host).
* :class:`Store` — a bounded producer/consumer queue (e.g. the prefetch
  buffer of Section 3.5).
* :class:`Channel` — a point-to-point link that serializes transfers at a
  fixed bandwidth with a per-message latency; the building block for
  link-level collective schedules.  It admits transfers by reservation and
  does not use :class:`Resource`, which stays as the reference FIFO server
  the channel tests build their oracle link from.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from math import inf
from typing import Any

from repro.sim.engine import Event, SimulationError, Simulator
from repro.sim.trace import Trace


class Resource:
    """A server pool with ``capacity`` concurrent slots and a FIFO queue.

    Usage inside a process::

        req = resource.acquire()
        yield req
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int = 1) -> None:
        if not capacity >= 1:  # NaN too; inf is an unbounded pool
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queue_length(self) -> int:
        return len(self._waiters)

    def acquire(self) -> Event:
        """An event that fires when a slot is granted to the caller."""
        ev = self.sim.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        """Return a slot; hands it to the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            # Slot moves directly to the next waiter; occupancy unchanged.
            self._waiters.popleft().succeed()
        else:
            self._in_use -= 1

    def use(self, duration: float):
        """Process helper: acquire, hold for ``duration``, release."""
        req = self.acquire()
        yield req
        try:
            yield self.sim.timeout(duration)
        finally:
            self.release()


class Store:
    """A bounded FIFO queue of items with blocking put/get."""

    def __init__(self, sim: Simulator, capacity: float = float("inf")) -> None:
        if not capacity >= 1:  # NaN too; inf (the default) is unbounded
            raise SimulationError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()
        self._putters: deque[tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> Event:
        """An event that fires once the item is in the store."""
        ev = self.sim.event()
        if self._getters:
            # Hand the item straight to a waiting consumer.
            self._getters.popleft().succeed(item)
            ev.succeed()
        elif len(self._items) < self.capacity:
            self._items.append(item)
            ev.succeed()
        else:
            self._putters.append((ev, item))
        return ev

    def get(self) -> Event:
        """An event that fires with the oldest item as its value."""
        ev = self.sim.event()
        if self._items:
            item = self._items.popleft()
            if self._putters:
                put_ev, pending = self._putters.popleft()
                self._items.append(pending)
                put_ev.succeed()
            ev.succeed(item)
        else:
            self._getters.append(ev)
        return ev


class Channel:
    """A directed link moving messages at ``bandwidth`` bytes/s.

    Transfers are serialized (the link is a FIFO single server); each
    transfer occupies the link for ``latency + nbytes / bandwidth`` seconds.
    This is the standard alpha-beta link model used by the collective
    schedules.

    The service time is known when a transfer asks, so the link admits it by
    *reservation*: its slot ``[start, start + duration)`` with ``start =
    max(now, free_at)`` is decided on the spot and one completion event is
    scheduled at the absolute time ``start + duration`` — the same floats a
    queue of waiters granted one by one would produce, without a grant
    event, a waiter queue or a release.

    Pass ``trace=`` to record every transfer's occupancy window as a
    :class:`~repro.sim.trace.TraceEvent` (actor ``actor`` or the channel
    name), which is how the overlap engine exposes its modeled collective
    timeline to the chrome-trace report.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth: float,
        latency: float = 0.0,
        name: str = "",
        trace: Trace | None = None,
        actor: str = "",
    ) -> None:
        if not bandwidth > 0:
            raise SimulationError("bandwidth must be positive")
        if not latency >= 0:
            raise SimulationError("latency must be non-negative")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.name = name
        self.trace = trace
        self.actor = actor or name or "channel"
        self._free_at = 0.0
        self.bytes_moved = 0.0
        self.busy_time = 0.0

    def transfer_time(self, nbytes: float, factor: float = 1.0) -> float:
        """Occupancy time of one transfer.

        ``factor`` scales the effective bandwidth (a degraded link runs at
        ``factor * bandwidth``); it must be positive — a fully down link is
        modeled by the retry logic of the fault-aware schedules, not here.
        A NaN or infinite result is refused: it would become the link's
        ``free_at`` and poison every later transfer.
        """
        if factor <= 0:
            raise SimulationError("bandwidth factor must be positive")
        duration = self.latency + nbytes / (self.bandwidth * factor)
        if not duration < inf:
            raise SimulationError(
                f"transfer time must be finite, got {duration} for {nbytes} bytes"
            )
        return duration

    def send(self, nbytes: float, factor: float = 1.0, label: str = "") -> Event:
        """Reserve the link's next free slot; the event fires on completion.

        ``bytes_moved``, ``busy_time`` and the trace record are written when
        the event fires, before anything waiting on it resumes.
        """
        if nbytes < 0:
            raise SimulationError("transfer size must be non-negative")
        duration = self.transfer_time(nbytes, factor)
        now = self.sim.now
        start = self._free_at if self._free_at > now else now
        done = self.sim.timeout_at(start + duration)  # refuses an overflow to inf
        self._free_at = start + duration
        done.callbacks.append(partial(self._completed, nbytes, start, duration, label))
        return done

    def _completed(
        self, nbytes: float, start: float, duration: float, label: str, event: Event
    ) -> None:
        self.bytes_moved += nbytes
        self.busy_time += duration
        if self.trace is not None:
            self.trace.record(self.actor, label or "transfer", start, duration, "comm")

    def transfer(self, nbytes: float, factor: float = 1.0, label: str = ""):
        """Process helper: ``yield from`` it to send and wait for completion."""
        yield self.send(nbytes, factor, label)
