"""Always-on flight recorder: the last N telemetry records, crash-dumpable.

A production fleet cannot replay the seconds before a chip death; a flight
recorder can.  This module keeps a **bounded ring buffer** of the most
recent telemetry records — measured spans (fed by a
:class:`~repro.telemetry.tracer.Tracer` sink), counter deltas, fault
events, and control-plane transitions (heartbeat suspicions/detections,
barrier releases/timeouts, checkpoint/restore) — and serializes them into
a JSON **postmortem bundle** whenever a terminal failure surfaces:

* :class:`~repro.resilience.faults.DeviceLostError` (a fault plan
  exterminating the fleet under :func:`~repro.resilience.chaos.run_chaos`);
* :class:`~repro.controlplane.group.JobKilledError` (coordinator death in
  the single-client topology);
* a :class:`~repro.controlplane.guard.ConsistencyGuard` ambiguous-tie
  rewind (the fleet survives, but the run rewound on corrupted state —
  exactly the moment an operator wants the preceding timeline);
* an unhandled process failure re-raised from
  :meth:`repro.sim.engine.Simulator.run`.

The recorder is **always on** (attached to the process tracer at import)
but every write is gated on ``repro.telemetry.enabled``, so
``REPRO_TELEMETRY=0`` disables it entirely.  Memory is O(capacity)
regardless of run length — the ring is a ``deque(maxlen=capacity)`` and a
record stores only floats/strings, never tensors.  A write is one append
to the bounded deque, which is atomic, so concurrent measured spans (e.g.
input-pipeline host threads) cannot corrupt the ring.

Writing sits on every training step, reading only on a postmortem: a
writer appends what it already holds — a step's spans as clock marks
(:class:`~repro.telemetry.tracer.Spans`), a trainer step's ``StepResult``
with the counter children and amounts its one registry ``add`` wrote, the
arguments of a cluster event — beside the function that turns it into
:class:`FlightRecord` objects, and records are built when
:attr:`FlightRecorder.records` or a bundle reads the ring.  A step's
counter deltas are worked out then too, by one rule: a drain reads only
the writes made outside a trainer step's ``add`` (a restart's counters, a
gauge), and only when there are any; the amounts a step added reach the
recorder through that step's own :meth:`FlightRecorder.on_step`, and show
in its record beside what was drained there.  Entries hold one record or
more, so the ring keeps the last ``capacity`` entries and a read builds
the newest ones, down to the last ``capacity`` records.

Bundles are written to ``REPRO_POSTMORTEM_DIR`` (or
``FlightRecorder.dump_dir``) when set; otherwise :meth:`FlightRecorder.dump`
captures the ring's entries and a registry snapshot, and the bundle is
built from them in memory when :attr:`FlightRecorder.last_postmortem` is
first read, so library code can *always* call :func:`on_terminal_failure`
without littering the working directory of test runs.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from typing import Callable, Mapping, NamedTuple

from repro import telemetry as _telemetry
from repro.refuse import count
from repro.telemetry.registry import DeltaReader, series_deltas
from repro.telemetry.step import flush as _flush_step

logger = logging.getLogger("repro.telemetry")

#: Bundle schema tag, bumped on incompatible layout changes.
POSTMORTEM_SCHEMA = "repro.postmortem/v1"

#: Default ring capacity; pass ``capacity`` for another.
DEFAULT_CAPACITY = 256


class FlightRecord(NamedTuple):
    """One record of the ring: a timestamped (kind, name, payload) triple.

    ``t`` is seconds since the recorder's epoch.  ``kind`` is the record
    class (``"span"``, ``"counters"``, ``"fault"``, ``"heartbeat"``,
    ``"barrier"``, ``"checkpoint"``, ``"step"``, ``"chaos"``, ...);
    ``data`` is a small JSON-ready payload — scalars and strings only.
    An immutable tuple: a postmortem builds one per record it shows.
    """

    t: float
    kind: str
    name: str
    data: dict

    def to_json(self) -> dict:
        return {"t": self.t, "kind": self.kind, "name": self.name, "data": self.data}


def _span_record(t: float, event) -> FlightRecord:
    return FlightRecord(t, "span", event.name, {
        "actor": event.actor,
        "category": event.category,
        "start": event.start,
        "duration": event.duration,
    })


def _step_record(t: float, result, trainer: str) -> FlightRecord:
    return FlightRecord(t, "step", "train_step", {
        "trainer": trainer,
        "step_index": getattr(result, "step_index", -1),
        "loss": float(result),
        "phase_seconds": dict(getattr(result, "phase_seconds", {}) or {}),
        "bytes_moved": getattr(result, "bytes_moved", 0.0),
    })


def _deltas_record(t: float, pairs) -> FlightRecord:
    return FlightRecord(t, "counters", "counter_deltas", {"deltas": series_deltas(pairs)})


# Entry builders: ``build(t, *args)`` is the list of records an entry holds.

def _one(t: float, kind: str, name: str, data: dict) -> list[FlightRecord]:
    return [FlightRecord(t, kind, name, data)]


def _spans(t: float, events) -> list[FlightRecord]:
    return [_span_record(t, event) for event in events]


def _deltas(t: float, pairs) -> list[FlightRecord]:
    return [_deltas_record(t, pairs)]


def _step(
    t: float, result, trainer: str, children, amounts, drained
) -> list[FlightRecord]:
    """A trainer step's record, then its counter deltas: the amounts its
    ``add`` wrote to ``children`` plus the other writes ``drained`` at it."""
    records = [_step_record(t, result, trainer)]
    pairs = drained
    if children:
        deltas = dict(drained)
        for child, amount in zip(children, amounts):
            if amount:
                deltas[child] = deltas.get(child, 0.0) + amount
        pairs = deltas.items()
    if pairs:
        records.append(_deltas_record(t, pairs))
    return records


def _modeled_step(t: float, step: int, slowdown: float, drained) -> list[FlightRecord]:
    records = [FlightRecord(t, "step", "modeled_step", {
        "step_index": step, "slowdown": slowdown,
    })]
    if drained:
        records.append(_deltas_record(t, drained))
    return records


class FlightRecorder:
    """Bounded ring buffer of recent telemetry, dumpable as a postmortem.

    ``capacity`` bounds both the record count and (because records hold no
    arrays) the memory footprint; the ring silently drops the oldest
    record on overflow, which is the whole point — recording must never
    become the thing that kills a 4096-chip run.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        clock=time.perf_counter,
        dump_dir: str | None = None,
    ) -> None:
        self.capacity = count("capacity", capacity)
        self._clock = clock
        self._epoch = clock()
        #: ``(build, t, *args)`` entries: ``build(t, *args)`` is the list of
        #: records one holds.  Each holds at least one, so the last
        #: ``capacity`` entries hold the last ``capacity`` records.  A write
        #: is one append, which the deque makes atomic, as is a reader's copy.
        self._records: deque[tuple] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._delta_reader = DeltaReader()
        self.dump_dir = (
            dump_dir
            if dump_dir is not None
            else (os.environ.get("REPRO_POSTMORTEM_DIR") or None)
        )
        #: What the most recent :meth:`dump` captured, and its bundle once
        #: built (see :attr:`last_postmortem`).
        self._last_capture: tuple | None = None
        self._last_bundle: dict | None = None
        #: Wall seconds :meth:`dump` took to build (and, when a directory
        #: is configured, write) the last bundle — the time-to-postmortem
        #: column of the availability tables.
        self.last_postmortem_seconds: float = 0.0
        self._dump_count = 0

    # --- write side ---------------------------------------------------------

    def now(self) -> float:
        """Seconds since the recorder epoch."""
        return self._clock() - self._epoch

    def record(self, kind: str, name: str, **data) -> None:
        """Append one record (no-op while telemetry is disabled), after the
        spans and counts of a trainer step running on this thread."""
        if not _telemetry.enabled:
            return
        _flush_step()
        self._records.append((_one, self.now(), kind, name, data))

    def record_lazy(self, build: Callable[..., list[FlightRecord]], *args) -> None:
        """Append the records ``build(t, *args)`` makes when the ring is
        read, ``t`` being now: a writer that runs often keeps its arguments
        as they are rather than building a payload per call."""
        if not _telemetry.enabled:
            return
        _flush_step()
        self._records.append((build, self.now(), *args))

    def on_trace_events(self, events) -> None:
        """Tracer sink: mirror measured spans into the ring, one write per
        call (a trainer step's spans come as one call, kept as marks)."""
        if _telemetry.enabled and events:
            self._records.append((_spans, self._clock() - self._epoch, events))

    def _drain(self, registry) -> list:
        """The counter/gauge changes made outside a trainer step's ``add``
        since this recorder's last drain; nothing is drained when nothing
        was written."""
        if not registry.unread(self._delta_reader):
            return ()
        return registry.scalar_deltas(self._delta_reader)

    def record_counter_deltas(self, registry=None) -> None:
        """Record which scalar metrics moved (and by how much) since last call.

        Reads the registry's counter/gauge children (histograms and
        collectors are skipped — this runs per training step) through
        :meth:`~repro.telemetry.registry.MetricsRegistry.scalar_deltas`,
        which visits only the children written since this recorder's last
        call, and stores the changed values, keyed ``name{k=v,...}`` when
        read.  Only writes made outside a trainer step's ``add`` count: a
        step's amounts are recorded by its :meth:`on_step` alone.  The first
        call, and the first after :meth:`clear`, reports every child's
        non-zero part written that way as a delta from 0.
        """
        if not _telemetry.enabled:
            return
        _flush_step()
        registry = registry if registry is not None else _telemetry.metrics
        pairs = self._drain(registry)
        if pairs:
            self._records.append((_deltas, self.now(), pairs))

    def append(self, at: float, kind: str, name: str, data: dict) -> None:
        """Append a record another recorder built, as of clock reading ``at``."""
        self._records.append((_one, at - self._epoch, kind, name, data))

    def record_fault(self, exc: BaseException, origin: str = "", **context) -> None:
        """Record a fault event (terminal or survived) into the ring."""
        self.record(
            "fault",
            type(exc).__name__,
            message=str(exc),
            origin=origin,
            **context,
        )

    def on_step(
        self, result, trainer: str = "", children: tuple = (), amounts=()
    ) -> None:
        """Record one trainer step boundary and the counter deltas it caused,
        in one ring write.

        ``children`` and ``amounts`` are what the step's one registry
        ``add`` wrote (kept by reference), which no drain reads; the deltas
        are those amounts plus whatever was written outside an ``add``
        since the previous drain, as :meth:`record_counter_deltas` would
        have recorded it.
        """
        if not _telemetry.enabled:
            return
        t = self._clock() - self._epoch
        drained = self._drain(_telemetry.metrics)
        self._records.append((_step, t, result, trainer, children, amounts, drained))

    def on_modeled_step(self, step: int, slowdown: float) -> None:
        """Record an accounting-mode step boundary, and the counter deltas
        since the previous one if anything was written, in one ring write."""
        if not _telemetry.enabled:
            return
        drained = self._drain(_telemetry.metrics)
        self._records.append(
            (_modeled_step, self._clock() - self._epoch, step, slowdown, drained)
        )

    # --- read side ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.records)

    @property
    def dump_count(self) -> int:
        """Postmortem bundles built since construction (survives clear())."""
        return self._dump_count

    def _built(self, entries=None) -> list[tuple[Callable, list[FlightRecord]]]:
        """The newest entries' builders and records, oldest first: only the
        entries holding the last ``capacity`` records are built."""
        if entries is None:
            with self._lock:
                entries = list(self._records)
        built = []
        wanted = self.capacity
        for build, *args in reversed(entries):
            records = build(*args)
            if len(records) > wanted:
                records = records[len(records) - wanted:]
            built.append((build, records))
            wanted -= len(records)
            if not wanted:
                break
        built.reverse()
        return built

    @property
    def records(self) -> list[FlightRecord]:
        """Snapshot of the ring contents, oldest first."""
        return [record for _, records in self._built() for record in records]

    def export_records(self, spans: int) -> list[tuple]:
        """The ring's records other than spans, as plain ``(position, at,
        kind, name, data)`` tuples, oldest first.

        ``spans`` is how many spans the recorder's tracer holds, the newest
        of them last in the ring; ``position`` counts those recorded ahead
        of the record, and ``at`` is its clock reading.
        """
        built = self._built()
        position = spans - sum(len(records) for build, records in built if build is _spans)
        out = []
        for build, records in built:
            if build is _spans:
                position += len(records)
                continue
            for r in records:
                out.append((position, self._epoch + r.t, r.kind, r.name, r.data))
        return out

    def clear(self) -> None:
        """Drop every record and restart the epoch (flag state untouched)."""
        with self._lock:
            self._records.clear()
            # A fresh reader: the registry forgets the old one with it.
            self._delta_reader = DeltaReader()
            self._epoch = self._clock()

    # --- postmortem ---------------------------------------------------------

    def postmortem_bundle(
        self,
        reason: str,
        exc: BaseException | None = None,
        registry=None,
        extra: Mapping[str, object] | None = None,
    ) -> dict:
        """The JSON-ready bundle: fault, ring contents, final counters —
        a trainer step running on this thread included, so far."""
        return self._bundle(*self._capture(reason, exc, registry, extra))

    def _capture(self, reason, exc, registry, extra) -> tuple:
        """What a bundle shows, as of now: the ring's entries (their records
        are built with the bundle), the registry snapshot, the rest.
        ``extra`` is read when the bundle is built: a caller passes a fresh
        mapping, or one that holds copies of what it shows."""
        _flush_step()
        registry = registry if registry is not None else _telemetry.metrics
        fault = None
        if exc is not None:
            fault = {
                "type": type(exc).__name__,
                "message": str(exc),
                "devices": [list(d) for d in getattr(exc, "devices", ())],
            }
        with self._lock:
            entries = list(self._records)
        return reason, self.now(), fault, entries, registry.snapshot(), extra or {}

    def _bundle(self, reason, at, fault, entries, counters, extra) -> dict:
        records = [record for _, built in self._built(entries) for record in built]
        return {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "recorded_at_s": at,
            "capacity": self.capacity,
            "num_records": len(records),
            "fault": fault,
            "records": [r.to_json() for r in records],
            "counters": counters,
            **extra,
        }

    @property
    def last_postmortem(self) -> dict | None:
        """The bundle of the most recent :meth:`dump` (memory-only when no
        dump directory is configured), built on first read from what the
        dump captured."""
        if self._last_bundle is None and self._last_capture is not None:
            self._last_bundle = self._bundle(*self._last_capture)
            self._last_capture = None
        return self._last_bundle

    def dump(
        self,
        reason: str,
        exc: BaseException | None = None,
        path: str | None = None,
        registry=None,
        extra: Mapping[str, object] | None = None,
    ) -> str | None:
        """Capture (and, when a directory is configured, write) a bundle.

        Returns the written path, or ``None`` when the bundle stayed
        in memory (no ``path`` argument, no dump directory) **or the
        write failed** — a broken dump directory must not replace the
        terminal failure the caller is about to re-raise.  The bundle
        is always available afterwards at :attr:`last_postmortem`: its
        counters are snapshotted now, and its records built from the ring
        entries of now when it is first read.
        """
        t0 = self._clock()
        self._dump_count += 1
        in_dir = path is None and bool(self.dump_dir)
        out_path = path
        if in_dir:
            out_path = os.path.join(
                self.dump_dir, f"postmortem_{os.getpid()}_{self._dump_count:03d}.json"
            )
        if out_path is None:
            self._last_capture = self._capture(reason, exc, registry, extra)
            self._last_bundle = None
        else:
            self._last_capture = None
            self._last_bundle = bundle = self.postmortem_bundle(
                reason, exc, registry=registry, extra=extra
            )
        try:
            if out_path is not None:
                if in_dir:
                    os.makedirs(self.dump_dir, exist_ok=True)
                with open(out_path, "w") as f:
                    json.dump(bundle, f, indent=2)
                logger.warning(
                    "postmortem bundle (%s, %d records) written to %s",
                    reason, bundle["num_records"], out_path,
                )
        except Exception:  # a broken sink must not kill the traced code
            logger.exception(
                "postmortem bundle (%s) could not be written; keeping it in memory",
                reason,
            )
            out_path = None
        self.last_postmortem_seconds = self._clock() - t0
        if _telemetry.enabled:
            _telemetry.metrics.counter("flight_postmortems", reason=reason).inc()
            _telemetry.metrics.gauge("flight_postmortem_seconds").set(
                self.last_postmortem_seconds
            )
        return out_path


def on_terminal_failure(
    exc: BaseException,
    origin: str = "",
    recorder: FlightRecorder | None = None,
    **context,
) -> str | None:
    """Record ``exc`` as a fault and dump a postmortem bundle.

    Call sites raise terminal errors from several layers (a link that
    stays down inside a DES process, the simulator re-raising it); the
    exception object is tagged after the first dump so the same failure
    propagating upward produces exactly one bundle.  Returns the written
    bundle path (``None`` when memory-only or telemetry is disabled).
    """
    if not _telemetry.enabled:
        return None
    if getattr(exc, "_repro_postmortem_done", False):
        return None
    try:
        exc._repro_postmortem_done = True  # type: ignore[attr-defined]
    except AttributeError:  # exotic exception with __slots__: dump anyway
        pass
    rec = recorder if recorder is not None else _telemetry.flight_recorder
    rec.record_fault(exc, origin=origin, **context)
    return rec.dump(reason=origin or type(exc).__name__, exc=exc)
