"""One trainer step's telemetry, gathered while it runs and recorded once.

A training step writes the same series every time, most of them by amounts
its plan fixes: a weight-update-sharded step's collectives move bytes, take
ring steps and launch as a pure function of the bucket plan, the replica
count and the dtype policy.  Such a step enters a :class:`StepRecord` for
its duration; :func:`step_record` then returns it on the step's thread, and

* an instrumented site whose counters the step tallies (a collective, a
  bucket flatten or segment lookup) leaves them to the step's one
  :meth:`~repro.telemetry.registry.MetricsRegistry.add` call and adds only
  what it measured to ``counts``, by series key;
* :meth:`~repro.telemetry.tracer.Tracer.emit` keeps the thread's spans in
  ``spans`` as clock marks, and the step records them with one
  :meth:`~repro.telemetry.tracer.Tracer.emit_all` when it ends — the same
  spans, in the same order, ahead of the step's flight record.

Flight records the thread writes during the step are not deferred: they
would land ahead of the step's spans, so a tallied step writes none.
"""

from __future__ import annotations

import threading

class _StepLocal(threading.local):
    #: The entered record; ``None`` on a thread outside a tallied step.
    record: "StepRecord | None" = None


_local = _StepLocal()


class StepRecord:
    """The measured counter amounts and spans of one tallied step."""

    __slots__ = ("counts", "spans")

    def __init__(self) -> None:
        #: Series key (``name{k=v,...}``) -> amount measured during the step.
        self.counts: dict[str, float] = {}
        #: ``(name, category, actor, start, end)`` of every span, in order.
        self.spans: list[tuple[str, str, str, float, float]] = []

    def __enter__(self) -> "StepRecord":
        _local.record = self
        return self

    def __exit__(self, *exc) -> None:
        _local.record = None


def step_record() -> StepRecord | None:
    """The :class:`StepRecord` of the tallied step running on this thread."""
    return _local.record
