"""Wall-clock span tracing onto the shared :class:`repro.sim.trace.Trace`.

The tracer is the timeline half of the telemetry subsystem.  It reuses the
simulator's event schema — measured spans and simulated spans are the same
:class:`~repro.sim.trace.TraceEvent`, so a measured run and a discrete-event
prediction merge into one Chrome trace (distinct ``pid`` lanes per source;
see :meth:`repro.sim.trace.Trace.to_chrome_trace`).

Usage::

    from repro import telemetry

    with telemetry.tracer.span("all_reduce", category="comm"):
        ...

Spans nest; Chrome's flame view nests them by containment automatically.
Timestamps are seconds since the tracer's epoch (construction or last
:meth:`Tracer.reset`), so a trace always starts near t=0.

When the module-level ``repro.telemetry.enabled`` flag is off, ``span``
returns a shared no-op context — two attribute lookups and no allocation,
which is the "near-zero cost" guarantee the instrumented hot paths rely on.

Code that already reads the clock around its work — a trainer's step and
phases, a collective timing its launch — does not open a span at all: it
hands its own marks to :meth:`Tracer.emit`, the function every ``with``
block also ends in.  Such a span costs one event, one list append and the
sinks, with no context-manager object, no open-span stack push and no
extra clock read.  Inside a trainer step (:mod:`repro.telemetry.step`) it
costs one tuple: the step hands its list of marks to
:meth:`Tracer.emit_all` when it ends, which keeps the list as it is and
gives the sinks (the flight recorder) the whole step in one call.  The
marks become :class:`~repro.sim.trace.TraceEvent` objects when someone reads
them — :attr:`Tracer.trace`, the one accessor, or a sink iterating them.

Concurrency: the open-span stack is **thread-local** (each writer thread
nests independently) and completed events land in the shared trace via a
single GIL-atomic list append, so concurrent writers (input-pipeline host
threads, a chaos harness driving a trainer while a detector thread spans)
interleave without corrupting each other's nesting.  *Sinks* registered
with :meth:`Tracer.add_sink` observe every completed event, as the list
each record call completes — this is how
the :class:`~repro.telemetry.flight.FlightRecorder` mirrors the span
stream into its ring buffer.

Memory: a tracer keeps its most recent :data:`TRACE_CAPACITY` spans (up to
twice that between trims), so a process that runs for hours does not grow
with every span it ever timed; a run of marks trimmed before anyone read
it is never turned into events.  Sinks still see every span; a plain
:class:`repro.sim.trace.Trace` stays unbounded.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from collections.abc import Sequence
from typing import Callable

from repro import telemetry as _telemetry
from repro.sim.trace import Trace, TraceEvent
from repro.telemetry.step import _local as _step_local

logger = logging.getLogger("repro.telemetry")

#: Source tag stamped on every measured span (simulator traces default "").
MEASURED_SOURCE = "measured"

#: Builds a :class:`TraceEvent` from its six fields without the Python-level
#: ``NamedTuple.__new__`` frame (one event per measured span).
_tuple_new = tuple.__new__


def _event(
    epoch: float, name: str, category: str, actor: str, start: float, end: float
) -> TraceEvent:
    """The measured span ``[start, end]`` (clock readings) as a trace event."""
    return _tuple_new(TraceEvent, (
        actor, name, start - epoch, end - start if end > start else 0.0,
        category, MEASURED_SOURCE,
    ))

class Spans(Sequence):
    """Finished spans kept as ``(name, category, actor, start, end)`` clock
    marks; read as :class:`TraceEvent` objects, built on the first read.

    What a trainer step hands the tracer and its sinks: the tracer's trace
    and the flight recorder's ring hold the same object, and whichever
    reads it first builds the events for both.
    """

    __slots__ = ("_epoch", "_marks", "_events")

    def __init__(self, epoch: float, marks: list) -> None:
        self._epoch = epoch
        self._marks = marks
        self._events: list[TraceEvent] | None = None

    @property
    def events(self) -> list[TraceEvent]:
        events = self._events
        if events is None:
            epoch = self._epoch
            events = self._events = [_event(epoch, *mark) for mark in self._marks]
        return events

    def __len__(self) -> int:
        return len(self._marks)

    def __getitem__(self, index):
        return self.events[index]

    def __iter__(self):
        return iter(self.events)


#: Most recent spans a tracer keeps.  They are trimmed back to this many
#: when they reach twice as many, so the trace stays a plain list and one
#: trim pays for ``TRACE_CAPACITY`` spans.
TRACE_CAPACITY = 8192


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span; records itself into the owning tracer's trace on exit."""

    __slots__ = ("_tracer", "name", "category", "actor", "_start")

    def __init__(self, tracer: "Tracer", name: str, category: str, actor: str) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.actor = actor
        self._start = 0.0

    def __enter__(self) -> "_Span":
        self._tracer._stack.append(self)
        self._start = self._tracer._clock()
        return self

    def __exit__(self, *exc) -> None:
        end = self._tracer._clock()
        tracer = self._tracer
        stack = tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        tracer.emit(self.name, self.category, self.actor, self._start, end)


class Tracer:
    """Produces measured spans compatible with the simulator's ``Trace``.

    ``clock`` is injectable for tests (defaults to
    :func:`time.perf_counter`).  ``actor`` names the default timeline lane;
    individual spans can override it.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        actor: str = "runtime",
    ) -> None:
        self._clock = clock
        self.actor = actor
        self._trace = Trace()
        #: Runs of spans recorded since the trace was last read, oldest
        #: first (appends and pops are atomic), and how many spans they hold.
        self._runs: deque[Sequence[TraceEvent]] = deque()
        self._pending = 0
        self._local = threading.local()
        self._sinks: list[Callable[[list[TraceEvent]], None]] = []
        self._epoch = clock()

    @property
    def trace(self) -> Trace:
        """The recorded spans as one :class:`~repro.sim.trace.Trace`.

        The one way to read them: runs of spans kept as marks since the
        last read join ``trace.events`` here, as events, in order.
        """
        runs, events = self._runs, self._trace.events
        while runs:
            run = runs.popleft()
            self._pending -= len(run)
            events.extend(run)
        return self._trace

    @property
    def _stack(self) -> list["_Span"]:
        """This thread's open-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, category: str = "", actor: str | None = None):
        """Context manager timing one span; no-op when telemetry is disabled."""
        if not _telemetry.enabled:
            return _NULL_SPAN
        return _Span(self, name, category, actor or self.actor)

    def emit(
        self, name: str, category: str, actor: str, start: float, end: float
    ) -> None:
        """Record one finished span, timed by this tracer's clock readings.

        The one way a span reaches the trace and the sinks: a ``with
        span(...)`` block ends here, and so does a span its caller timed
        itself from clock marks it takes anyway (a collective's launch).
        While a trainer step runs on this thread (its
        :class:`~repro.telemetry.step.StepRecord`), the process tracer's
        marks wait in its record, and the step hands them all to that
        tracer's :meth:`emit_all`; another tracer records at once.
        Callers check ``repro.telemetry.enabled`` first.
        """
        record = _step_local.record
        if record is not None and self is _telemetry.tracer:
            record.marks.append((name, category, actor, start, end))
            return
        self._deliver((_event(self._epoch, name, category, actor, start, end),))

    def emit_all(self, marks: list) -> None:
        """Record finished spans given as a list of ``(name, category,
        actor, start, end)`` marks, in order, which the tracer keeps (the
        caller no longer changes it): they join the trace, and every sink
        sees them all in one call, as one :class:`Spans`."""
        if marks:
            self._deliver(Spans(self._epoch, marks), len(marks))

    def _deliver(self, batch: Sequence[TraceEvent], size: int = 1) -> None:
        """Hand ``size`` spans (one or more) to the trace and the sinks."""
        self._runs.append(batch)
        self._pending += size
        if self._pending + len(self._trace.events) >= 2 * TRACE_CAPACITY:
            self._trim()
        for sink in self._sinks:
            try:
                sink(batch)
            except Exception:  # a broken sink must not kill the traced code
                logger.exception("trace sink %r failed", sink)

    def _trim(self) -> None:
        """Drop the oldest spans, read or not, down to ``TRACE_CAPACITY``."""
        events, runs = self._trace.events, self._runs
        excess = len(events) + self._pending - TRACE_CAPACITY
        dropped = min(excess, len(events))
        del events[:dropped]
        excess -= dropped
        while runs and excess > 0:
            run = runs.popleft()
            self._pending -= len(run)
            if len(run) > excess:  # keep its newest spans, now read
                events.extend(run[excess:])
            excess -= len(run)

    def add_sink(self, fn: Callable[[list[TraceEvent]], None]) -> None:
        """Call ``fn(events)`` with the spans each record call completes, in
        order (the flight recorder hook: one call per span, or per trainer
        step)."""
        if fn not in self._sinks:
            self._sinks.append(fn)

    @property
    def depth(self) -> int:
        """Open spans on the calling thread (0 outside any ``with`` block)."""
        return len(self._stack)

    def now(self) -> float:
        """Seconds since the tracer epoch (comparable to recorded starts)."""
        return self._clock() - self._epoch

    def reset(self) -> None:
        """Drop all recorded events and restart the epoch at t=0.

        Sinks stay registered; only this thread's open-span stack can be
        cleared (other threads' stacks empty as their spans exit).
        """
        self._trace = Trace()
        self._runs = deque()
        self._pending = 0
        self._stack.clear()
        self._epoch = self._clock()
