"""Core discrete-event loop: events, processes, and the simulator clock.

The design follows SimPy's proven architecture — an event heap ordered by
(time, priority, sequence), generator-based processes that yield events —
but is deliberately small: only the features the repro needs (timeouts,
process joins, AllOf/AnyOf, resources, stores) are implemented, with
deterministic FIFO ordering everywhere so simulations are reproducible.
"""

from __future__ import annotations

import heapq
import logging
from math import inf
from typing import Any, Callable, Generator, Iterable

logger = logging.getLogger("repro.sim")

#: Yield type of a simulation process.
ProcessGenerator = Generator["Event", Any, Any]


class SimulationError(RuntimeError):
    """Raised for misuse of the simulation API (e.g. re-triggering events)."""


class Event:
    """A one-shot occurrence that processes can wait on.

    An event is *triggered* with a value (or an exception); callbacks added
    before triggering run when the event fires, in FIFO order.

    A failed event is *defused* once its exception is delivered somewhere
    that can handle it (thrown into a waiting process, or absorbed into a
    failing AllOf/AnyOf).  Failed events that are still undefused when
    processed re-raise from :meth:`Simulator.run` — a process crash cannot
    be silently swallowed just because nobody joined on it.
    """

    __slots__ = (
        "sim", "callbacks", "_value", "_exception", "_triggered", "_processed",
        "_defused",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError("event value read before trigger")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully; schedules callbacks at `now`."""
        if self._triggered:
            raise SimulationError("event already triggered")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception (delivered into waiters)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self, delay=0.0)
        return self


class Timeout(Event):
    """An event that fires after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        # One chained comparison refuses negative, infinite and NaN delays:
        # a NaN key would break the heap order for every later event.
        if not 0 <= delay < inf:
            raise SimulationError(f"timeout must be finite and non-negative, got {delay}")
        Event.__init__(self, sim)  # direct: one per event, and super() is not free
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._schedule(self, delay=delay)


class Process(Event):
    """A running generator; also an event that fires when it returns."""

    __slots__ = ("generator", "name", "_target")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator, name: str = "") -> None:
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._target: Event | None = None
        # Bootstrap: resume the generator at the current time.
        init = Timeout(sim, 0.0)
        init.callbacks.append(self._resume)

    def _resume(self, event: Event) -> None:
        self._target = None
        try:
            if event._exception is not None:
                # The exception is delivered into this generator; whether it
                # handles or re-raises, the source event is accounted for.
                event._defused = True
                next_event = self.generator.throw(event._exception)
            else:
                next_event = self.generator.send(event._value)
        except StopIteration as stop:
            if not self._triggered:
                self.succeed(stop.value)
            return
        except Exception as exc:
            # The process crashed: fail its event so joiners receive the
            # exception.  If nobody joins, Simulator.run() re-raises it.
            if not self._triggered:
                self.fail(exc)
            return
        if not isinstance(next_event, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {next_event!r}, expected an Event"
            )
        if next_event is self:
            raise SimulationError(f"process {self.name!r} waited on itself")
        self._target = next_event
        if next_event._processed:
            # Already fired and processed: resume immediately at `now`.
            resume = Timeout(self.sim, 0.0, value=next_event._value)
            resume._exception = next_event._exception
            resume.callbacks.append(self._resume)
        else:
            next_event.callbacks.append(self._resume)


class AllOf(Event):
    """Fires when all child events have fired; value is a list of values."""

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for ev in self._events:
            if ev._processed:
                self._on_child(ev)
            else:
                ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            # A late child failure after this condition already triggered is
            # NOT absorbed: it stays undefused and surfaces from run().
            return
        if event._exception is not None:
            event._defused = True  # the condition now carries the failure
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([ev._value for ev in self._events])


class AnyOf(Event):
    """Fires when the first child event fires; value is that event's value."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise SimulationError("AnyOf needs at least one event")
        for ev in self._events:
            if ev._processed:
                self._on_child(ev)
                break
            ev.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            # Late losers of the race are not absorbed; a failing one stays
            # undefused and surfaces from run().
            return
        if event._exception is not None:
            event._defused = True  # the condition now carries the failure
            self.fail(event._exception)
        else:
            self.succeed(event._value)


class Simulator:
    """The event loop: a clock plus a heap of scheduled events."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Events popped off the heap so far: a machine-independent count of
        the work a run did.  Every scheduled event takes one sequence
        number, so this is the numbers handed out minus what still waits."""
        return self._seq - len(self._heap)

    def _schedule(self, event: Event, delay: float) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (self._now + delay, self._seq, event))

    # --- public API ---------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event (trigger it with ``succeed``/``fail``)."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def timeout_at(self, time: float, value: Any = None) -> Event:
        """An event firing at the absolute time ``time`` (not before now).

        For a caller that already knows *when* — a FIFO link that has
        decided a transfer's slot — the heap key is the caller's float
        itself, not ``now + (time - now)``, which can round differently.
        """
        if not self._now <= time < inf:
            raise SimulationError(
                f"absolute time must be finite and not in the past, got {time} at t={self._now}"
            )
        event = Event(self)
        event._triggered = True
        event._value = value
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, event))
        return event

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a generator as a concurrent process."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def run(self, until: float | None = None) -> float:
        """Process events until the heap is empty (or the time horizon).

        Returns the final simulation time.  Exceptions raised inside
        processes propagate to the caller unless some process handles them:
        a failed event that no callback *defused* (threw into a waiting
        generator or absorbed into a failing condition) re-raises here,
        with the failing process named — a crash in a process nobody joins
        on must not be silently swallowed.
        """
        while self._heap:
            t, _, event = self._heap[0]
            if until is not None and t > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = t
            callbacks, event.callbacks = event.callbacks, []
            event._processed = True
            for cb in callbacks:
                cb(event)
            if event._exception is not None and not event._defused:
                # Nobody handled the failure: surface the error.
                exc = event._exception
                if isinstance(event, Process):
                    where = f"unhandled failure in process {event.name!r} at t={t:g}"
                else:
                    where = f"unhandled failure in {type(event).__name__} at t={t:g}"
                logger.error("%s: %r", where, exc)
                if hasattr(exc, "add_note"):  # py3.11+
                    exc.add_note(where)
                # Deferred import: repro.sim must stay importable standalone.
                from repro.telemetry import on_terminal_failure

                on_terminal_failure(exc, origin="sim.run", sim_time=t)
                raise exc
        if until is not None and until > self._now:
            self._now = until
        return self._now
