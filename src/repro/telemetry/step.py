"""One trainer step's telemetry, gathered while it runs and recorded once.

Every trainer step enters a :class:`StepRecord` for its duration
(``BaseTrainer._step``); :func:`step_record` then returns it on the step's
thread, and

* an instrumented site — a collective, a bucket's flatten, unflatten or
  segment lookup, the overlap model — counts what it actually launched
  through :func:`tally`, which adds the amount to the record's ``counts``
  by series; the step writes them all, with its own, in one
  :meth:`~repro.telemetry.registry.MetricsRegistry.add` call when it ends.
  Outside a step (a collective called on its own, ``graph_exec``,
  ``VirtualMesh``) :func:`tally` writes the registry at once;
* the process tracer's :meth:`~repro.telemetry.tracer.Tracer.emit` keeps
  the thread's spans in ``spans`` as clock marks, and the step records
  them with one :meth:`~repro.telemetry.tracer.Tracer.emit_all` when it
  ends — the same spans, in the same order, ahead of the step's flight
  record.

A flight record or postmortem written while a step runs calls
:func:`flush` first, so it lands after the step's spans and counts so
far, as it would have without the deferral.  A step that raises flushes
what its sites counted, and records no step of its own.
"""

from __future__ import annotations

import threading

from repro import telemetry as _telemetry


class _StepLocal(threading.local):
    #: The entered record; ``None`` on a thread outside a trainer step.
    record: "StepRecord | None" = None


_local = _StepLocal()


class StepRecord:
    """The counter amounts and spans of one step, so far."""

    __slots__ = ("counts", "spans")

    def __init__(self) -> None:
        #: ``(name, *labels.items())`` -> amount its sites counted.
        self.counts: dict[tuple, float] = {}
        #: ``(name, category, actor, start, end)`` of every span, in order.
        self.spans: list[tuple[str, str, str, float, float]] = []

    def __enter__(self) -> "StepRecord":
        _local.record = self
        return self

    def __exit__(self, *exc) -> None:
        _local.record = None

    def flush(self) -> None:
        """Hand the spans and counts so far to the tracer and the registry."""
        spans, self.spans = self.spans, []
        counts, self.counts = self.counts, {}
        if spans:
            _telemetry.tracer.emit_all(spans)
        counter = _telemetry.metrics.counter
        for (name, *labels), amount in counts.items():
            counter(name, **dict(labels)).inc(amount)


def step_record() -> StepRecord | None:
    """The :class:`StepRecord` of the trainer step running on this thread."""
    return _local.record


def tally(name: str, amount: float, **labels: str) -> None:
    """Count ``amount`` on the counter ``name{labels}``.

    Inside a trainer step the amount joins the step's record, which writes
    it with the step's one registry call; outside one it is written now.
    A site passes its labels in one order, so each series has one key.
    """
    record = _local.record
    if record is None:
        _telemetry.metrics.counter(name, **labels).inc(amount)
        return
    key = (name, *labels.items())
    counts = record.counts
    counts[key] = counts.get(key, 0.0) + amount


def flush() -> None:
    """:meth:`StepRecord.flush` the step running on this thread, if any."""
    record = _local.record
    if record is not None:
        record.flush()
