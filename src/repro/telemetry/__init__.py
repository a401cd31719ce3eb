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
    disabled cost to one attribute lookup and the enabled cost far below
    the millisecond-scale kernels being measured (``bench/run.py --trace
    1`` reports it per workload as ``telemetry.overhead_pct``).

``REPRO_TELEMETRY=0`` in the environment starts a process with the flag
off; the :func:`disabled` context manager turns it off for a block.  Use
:func:`reset` to clear both metrics and spans between runs.  The
``repro-telemetry`` console script (:mod:`repro.telemetry.report`) renders
a step-time breakdown and writes merged Chrome-trace JSON.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

from repro.telemetry.registry import (
    Counter,
    DEFAULT_MAX_CHILDREN,
    DEFAULT_TIME_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
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
tracer.add_sink(flight_recorder.on_trace_event)


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


__all__ = [
    "Counter",
    "DEFAULT_MAX_CHILDREN",
    "DEFAULT_TIME_BUCKETS",
    "FlightRecord",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MEASURED_SOURCE",
    "MetricsRegistry",
    "Tracer",
    "disabled",
    "enabled",
    "flight_recorder",
    "metrics",
    "on_terminal_failure",
    "reset",
    "tracer",
]
