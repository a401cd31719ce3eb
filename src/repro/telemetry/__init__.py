"""Runtime telemetry: metrics registry, span tracing, traffic accounting.

The real execution path (``repro.runtime``, ``repro.core`` trainers, the
input pipeline) is instrumented against the process-wide objects here:

``metrics``
    A :class:`~repro.telemetry.registry.MetricsRegistry` of counters,
    gauges, and fixed-bucket histograms with labeled children, e.g.
    ``metrics.counter("collective_bytes", op="reduce_scatter", axis="y")``.

``tracer``
    A :class:`~repro.telemetry.tracer.Tracer` producing wall-clock spans on
    the same :class:`~repro.sim.trace.TraceEvent` schema the discrete-event
    simulator emits, so measured and simulated timelines merge into one
    Chrome trace.

``enabled``
    Module-level flag, **on by default**.  Instrumentation sites guard with
    ``if telemetry.enabled:`` (or get a shared no-op span), keeping the
    disabled cost to one attribute lookup.  Enabled, a training step pays
    per span an event built from clock marks the step takes anyway, one
    registry call for all its own counters (a :class:`CounterSet`), one
    observation per histogram, and one step record plus counter-delta
    drain whose records are formatted only when read.  A
    weight-update-sharded step, whose launches its bucket plan fixes, also
    writes its collectives' and bucket's counters in that one call, and
    hands its seven spans to the sinks at once (a :class:`StepRecord`,
    :mod:`repro.telemetry.step`); DESIGN §7 states the budget as counts.
    ``bench/run.py --trace 1`` reports the cost per workload as
    ``telemetry.overhead_pct``.

``REPRO_TELEMETRY=0`` in the environment starts a process with the flag
off; the :func:`disabled` context manager turns it off for a block.  Use
:func:`reset` to clear both metrics and spans between runs.
:func:`export` packs what a process recorded since then into one picklable
value and :func:`merge` adds it to another process's objects — how a
forked service worker's job telemetry reaches the service.  The
``repro-telemetry`` console script (:mod:`repro.telemetry.report`) renders
a step-time breakdown and writes merged Chrome-trace JSON.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager

from repro.telemetry.registry import (
    Counter,
    CounterSet,
    DEFAULT_MAX_CHILDREN,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.step import StepRecord, step_record
from repro.telemetry.tracer import MEASURED_SOURCE, Tracer
from repro.telemetry.flight import FlightRecord, FlightRecorder, on_terminal_failure

#: Global kill switch checked by every instrumentation site.  Default on:
#: the instrumented paths are millisecond-scale, the probes nanosecond-scale.
#: ``REPRO_TELEMETRY=0`` in the environment starts the process disabled
#: (useful for A/B overhead measurements across subprocess boundaries).
enabled: bool = os.environ.get("REPRO_TELEMETRY", "1") != "0"

#: Process-wide registry and tracer; tests may construct private instances.
metrics = MetricsRegistry()
tracer = Tracer()

#: Process-wide flight recorder: a bounded ring of the last N spans,
#: counter deltas, and fault/control-plane events, dumped as a JSON
#: postmortem bundle when a terminal failure surfaces (see
#: :mod:`repro.telemetry.flight`).  Always attached; every write is gated
#: on ``enabled``, so ``REPRO_TELEMETRY=0`` silences it entirely.
flight_recorder = FlightRecorder()
tracer.add_sink(flight_recorder.on_trace_events)


@contextmanager
def disabled():
    """Temporarily disable telemetry (the benchmark's telemetry-off passes)."""
    global enabled
    prev = enabled
    enabled = False
    try:
        yield
    finally:
        enabled = prev


def reset() -> None:
    """Clear all recorded metrics, spans, and flight records (flag kept)."""
    metrics.reset()
    tracer.reset()
    flight_recorder.clear()


def export() -> tuple:
    """Everything recorded since the last :func:`reset`, as one picklable value.

    Counter, gauge and histogram states, the tracer's spans, and the flight
    recorder's other records, each placed among the spans it was recorded
    between.  :func:`merge` adds the value to another process's telemetry.
    """
    events = tracer.trace.events
    return (
        metrics.export_state(),
        tracer._epoch,
        # Plain tuples: a NamedTuple pickles through Python-level reduce.
        list(map(tuple, events)),
        flight_recorder.export_records(len(events)),
    )


def merge(exported: tuple) -> None:
    """Add another process's :func:`export` to this process's telemetry.

    Counters add, gauges set, histograms merge.  The spans go through the
    tracer's delivery, so its sinks (the flight recorder) see them; the
    flight records are appended between them in the order they were
    recorded.  Timestamps are moved onto this process's epochs, which
    works because ``perf_counter`` is system-wide.
    """
    state, epoch, events, records = exported
    metrics.merge_state(state)
    spans = [
        (name, category, actor, epoch + start, epoch + start + duration)
        for actor, name, start, duration, category, _ in events
    ]
    done = 0
    for position, *record in records:
        if position > done:
            tracer.emit_all(spans[done:position])
            done = position
        flight_recorder.append(*record)
    if done < len(spans):
        tracer.emit_all(spans[done:])


def _after_fork_in_child() -> None:
    # Only the forking thread survives a fork: a lock another thread held
    # at that moment would never be released in the child.
    metrics._lock = threading.Lock()
    flight_recorder._lock = threading.Lock()


if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=_after_fork_in_child)


__all__ = [
    "Counter",
    "CounterSet",
    "DEFAULT_MAX_CHILDREN",
    "DEFAULT_TIME_BUCKETS",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MEASURED_SOURCE",
    "MetricsRegistry",
    "StepRecord",
    "Tracer",
    "disabled",
    "enabled",
    "export",
    "flight_recorder",
    "merge",
    "metrics",
    "on_terminal_failure",
    "reset",
    "step_record",
    "tracer",
]
