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

Concurrency: the open-span stack is **thread-local** (each writer thread
nests independently) and completed events land in the shared trace via a
single GIL-atomic list append, so concurrent writers (input-pipeline host
threads, a chaos harness driving a trainer while a detector thread spans)
interleave without corrupting each other's nesting.  *Sinks* registered
with :meth:`Tracer.add_sink` observe every completed event — this is how
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

from repro.sim.trace import Trace, TraceEvent

logger = logging.getLogger("repro.telemetry")

#: Source tag stamped on every measured span (simulator traces default "").
MEASURED_SOURCE = "measured"

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
        event = TraceEvent(
            self.actor,
            self.name,
            self._start - tracer._epoch,
            max(0.0, end - self._start),
            self.category,
            MEASURED_SOURCE,
        )
        events = tracer.trace.events
        events.append(event)
        if len(events) >= 2 * TRACE_CAPACITY:
            del events[:-TRACE_CAPACITY]
        for sink in tracer._sinks:
            try:
                sink(event)
            except Exception:  # a broken sink must not kill the traced code
                logger.exception("trace sink %r failed", sink)


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
        self._sinks: list[Callable[[TraceEvent], None]] = []
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
        from repro import telemetry

        if not telemetry.enabled:
            return _NULL_SPAN
        return _Span(self, name, category, actor or self.actor)

    def add_sink(self, fn: Callable[[TraceEvent], None]) -> None:
        """Call ``fn(event)`` for every completed span (flight recorder hook)."""
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
