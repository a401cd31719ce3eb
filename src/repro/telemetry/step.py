"""One trainer step's telemetry, gathered while it runs and recorded once.

Every counter series an instrumented site writes is *interned* once
(:func:`series`, the counter kind of
:func:`~repro.telemetry.registry.intern`): its ``(name, labels)`` pair
gets a small int, which the site resolves per launch shape, bucket or
trainer and keeps.  Every trainer step enters a :class:`StepRecord` for
its duration (``BaseTrainer._step``), the record of the step running on
its thread, and

* an instrumented site — a collective, a bucket's flatten, unflatten or
  segment lookup, the overlap model, the trainer itself — counts what it
  actually launched through :func:`tally`, which adds the amount at the
  series' slot of the record's ``amounts`` list.  The slots are the
  trainer's (a :class:`~repro.telemetry.registry.Slots` table): a step
  starts from the series its previous step counted, so a repeated step
  finds every slot in place.  The step writes all of them in one
  :meth:`~repro.telemetry.registry.MetricsRegistry.add` call when it ends.
  Outside a step (a collective called on its own, ``graph_exec``,
  ``VirtualMesh``, a checkpoint's segment lookup) :func:`tally` writes
  the series' child at once, found by its id;
* the process tracer's :meth:`~repro.telemetry.tracer.Tracer.emit` keeps
  the thread's spans in ``marks`` as clock marks, and the step hands the
  list to :meth:`~repro.telemetry.tracer.Tracer.emit_all` when it ends —
  the same spans, in the same order, ahead of the step's flight record.
  Their trace events and flight records are built from those marks when
  someone reads them.

A flight record or postmortem written while a step runs calls
:func:`flush` first, so it lands after the step's spans and counts so
far, as it would have without the deferral.  A step that raises flushes
what its sites counted, and records no step of its own.
"""

from __future__ import annotations

import threading

from repro import telemetry as _telemetry
from repro.telemetry.registry import Slots, intern


def series(name: str, **labels: str) -> int:
    """The id of the counter series ``name{labels}``, interned on first use.

    Labels are ``str`` and given in one order per site, as for the
    registry's lookups.
    """
    return intern("counter", name, labels)


class _StepLocal(threading.local):
    #: The entered record; ``None`` on a thread outside a trainer step.
    record: "StepRecord | None" = None


_local = _StepLocal()


class StepRecord:
    """The counter amounts and span marks of one step, so far.

    ``slots`` maps a series id to its index in ``amounts``; a record made
    from a previous step's slots starts with every one of them at zero and
    shares the table until a new series joins it.
    """

    __slots__ = ("slots", "amounts", "marks")

    def __init__(self, slots: Slots | None = None) -> None:
        self.slots = Slots() if slots is None else slots
        #: Amount counted per slot.
        self.amounts: list[float] = [0.0] * len(self.slots)
        #: ``(name, category, actor, start, end)`` of every span, in order.
        self.marks: list[tuple[str, str, str, float, float]] = []

    def __enter__(self) -> "StepRecord":
        _local.record = self
        return self

    def __exit__(self, *exc) -> None:
        _local.record = None

    def slot(self, ident: int) -> int:
        """A new slot for series ``ident`` (the shared table is copied)."""
        index = len(self.amounts)
        self.slots = Slots({**self.slots, ident: index})
        self.amounts.append(0.0)
        return index

    def tally_all(self, idents, amounts) -> None:
        """Add ``amounts[i]`` at the slot of series ``idents[i]``."""
        slots, values = self.slots, self.amounts
        for ident, amount in zip(idents, amounts):
            index = slots.get(ident)
            if index is None:
                index = self.slot(ident)
                slots = self.slots
            values[index] += amount

    def flush(self) -> None:
        """Hand the spans and counts so far to the tracer and the registry
        (as direct writes, which the process recorder drains)."""
        marks, self.marks = self.marks, []
        amounts = self.amounts
        self.amounts = [0.0] * len(amounts)
        if marks:
            _telemetry.tracer.emit_all(marks)
        child = _telemetry.metrics.child
        for ident, amount in zip(self.slots, amounts):
            child(ident).inc(amount)


def tally(ident: int, amount: float) -> None:
    """Count ``amount`` on the counter series ``ident`` (see :func:`series`).

    Inside a trainer step the amount is added at the series' slot of the
    step's record, which writes it with the step's one registry call;
    outside one it is written to the series' child now.
    """
    record = _local.record
    if record is None:
        _telemetry.metrics.child(ident).inc(amount)
        return
    index = record.slots.get(ident)
    if index is None:
        index = record.slot(ident)
    record.amounts[index] += amount


def tally_all(idents: tuple[int, ...], amounts) -> None:
    """:func:`tally` ``amounts[i]`` on series ``idents[i]``, in one call (the
    series one launch or one flatten writes together)."""
    record = _local.record
    if record is None:
        child = _telemetry.metrics.child
        for ident, amount in zip(idents, amounts):
            child(ident).inc(amount)
    else:
        record.tally_all(idents, amounts)


def flush() -> None:
    """:meth:`StepRecord.flush` the step running on this thread, if any."""
    record = _local.record
    if record is not None:
        record.flush()
