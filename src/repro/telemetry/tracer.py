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
costs one tuple: the step hands all its marks to :meth:`Tracer.emit_all`
when it ends, which builds the events in one pass and gives the sinks
(the flight recorder) the whole step in one call.

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
with every span it ever timed.  Sinks still see every span; a plain
:class:`repro.sim.trace.Trace` stays unbounded.
"""

from __future__ import annotations

import logging
import threading
import time
from typing import Callable

from repro import telemetry as _telemetry
from repro.sim.trace import Trace, TraceEvent
from repro.telemetry.step import step_record

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

#: Most recent spans a tracer keeps.  The list is trimmed back to this many
#: when it reaches twice as many, so it stays a plain list and one trim pays
#: for ``TRACE_CAPACITY`` appends.
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
        self.trace = Trace()
        self._local = threading.local()
        self._sinks: list[Callable[[list[TraceEvent]], None]] = []
        self._epoch = clock()

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
        itself from clock marks it takes anyway (a trainer's phases).
        While a trainer step runs on this thread
        (:func:`~repro.telemetry.step.step_record`), the process tracer's
        marks wait in its record, and the step hands them all to that
        tracer's :meth:`emit_all`; another tracer records at once.
        Callers check ``repro.telemetry.enabled`` first.
        """
        record = step_record()
        if record is not None and self is _telemetry.tracer:
            record.spans.append((name, category, actor, start, end))
            return
        self._deliver((_event(self._epoch, name, category, actor, start, end),))

    def emit_all(self, spans) -> None:
        """Record finished spans given as ``(name, category, actor, start,
        end)`` marks, in order: their events join the trace, and every sink
        sees them all in one call."""
        epoch = self._epoch
        self._deliver([_event(epoch, *span) for span in spans])

    def _deliver(self, batch) -> None:
        events = self.trace.events
        events.extend(batch)
        if len(events) >= 2 * TRACE_CAPACITY:
            del events[:-TRACE_CAPACITY]
        for sink in self._sinks:
            try:
                sink(batch)
            except Exception:  # a broken sink must not kill the traced code
                logger.exception("trace sink %r failed", sink)

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
        self.trace = Trace()
        self._stack.clear()
        self._epoch = self._clock()
