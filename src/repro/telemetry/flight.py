"""Always-on flight recorder: the last N telemetry records, crash-dumpable.

A production fleet cannot replay the seconds before a chip death; a flight
recorder can.  This module keeps a **bounded ring buffer** of the most
recent telemetry records — measured spans (fed by a
:class:`~repro.telemetry.tracer.Tracer` sink), counter deltas, fault
events, and control-plane transitions (heartbeat suspicions/detections,
barrier releases/timeouts, checkpoint/restore) — and serializes them into
a JSON **postmortem bundle** whenever a terminal failure surfaces:

* :class:`~repro.resilience.faults.DeviceLostError` (dead-buffer access,
  a fault plan exterminating the fleet);
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
record stores only floats/strings, never tensors.  Writers are
lock-protected, so concurrent measured spans (e.g. input-pipeline host
threads) cannot corrupt the ring.

Bundles are written to ``REPRO_POSTMORTEM_DIR`` (or
``FlightRecorder.dump_dir``) when set; otherwise the bundle is only built
in memory and kept at :attr:`FlightRecorder.last_postmortem`, so library
code can *always* call :func:`on_terminal_failure` without littering the
working directory of test runs.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from repro.telemetry.registry import DeltaReader

logger = logging.getLogger("repro.telemetry")

#: Bundle schema tag, bumped on incompatible layout changes.
POSTMORTEM_SCHEMA = "repro.postmortem/v1"

#: Default ring capacity; override per-recorder or via REPRO_FLIGHT_CAPACITY.
DEFAULT_CAPACITY = 256


def _default_capacity() -> int:
    raw = os.environ.get("REPRO_FLIGHT_CAPACITY", "")
    try:
        value = int(raw)
    except ValueError:
        return DEFAULT_CAPACITY
    return value if value >= 1 else DEFAULT_CAPACITY


@dataclass(frozen=True)
class FlightRecord:
    """One entry in the ring: a timestamped (kind, name, payload) triple.

    ``t`` is seconds since the recorder's epoch.  ``kind`` is the record
    class (``"span"``, ``"counters"``, ``"fault"``, ``"heartbeat"``,
    ``"barrier"``, ``"checkpoint"``, ``"step"``, ``"chaos"``, ...);
    ``data`` is a small JSON-ready payload — scalars and strings only.
    """

    t: float
    kind: str
    name: str
    data: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"t": self.t, "kind": self.kind, "name": self.name, "data": self.data}


class FlightRecorder:
    """Bounded ring buffer of recent telemetry, dumpable as a postmortem.

    ``capacity`` bounds both the record count and (because records hold no
    arrays) the memory footprint; the ring silently drops the oldest
    record on overflow, which is the whole point — recording must never
    become the thing that kills a 4096-chip run.
    """

    def __init__(
        self,
        capacity: int | None = None,
        clock=time.perf_counter,
        dump_dir: str | None = None,
    ) -> None:
        self.capacity = capacity if capacity is not None else _default_capacity()
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._clock = clock
        self._epoch = clock()
        self._records: deque[FlightRecord] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._delta_reader = DeltaReader()
        self.dump_dir = (
            dump_dir
            if dump_dir is not None
            else (os.environ.get("REPRO_POSTMORTEM_DIR") or None)
        )
        #: The most recent bundle built by :meth:`dump` (memory-only when
        #: no dump directory is configured).
        self.last_postmortem: dict | None = None
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
        """Append one record (no-op while telemetry is disabled)."""
        from repro import telemetry

        if not telemetry.enabled:
            return
        rec = FlightRecord(self.now(), kind, name, data)
        with self._lock:
            self._records.append(rec)

    def on_trace_event(self, event) -> None:
        """Tracer sink: mirror every measured span into the ring."""
        from repro import telemetry

        if not telemetry.enabled:
            return
        rec = FlightRecord(
            self.now(),
            "span",
            event.name,
            {
                "actor": event.actor,
                "category": event.category,
                "start": event.start,
                "duration": event.duration,
            },
        )
        with self._lock:
            self._records.append(rec)

    def record_counter_deltas(self, registry=None) -> None:
        """Record which scalar metrics moved (and by how much) since last call.

        Reads the registry's counter/gauge children (histograms and
        collectors are skipped — this runs per training step) through
        :meth:`~repro.telemetry.registry.MetricsRegistry.scalar_deltas`,
        which visits only the children written since this recorder's last
        call, and stores the changed values keyed ``name{k=v,...}``.  The
        first call, and the first after :meth:`clear`, reports every
        non-zero child as a delta from 0.
        """
        from repro import telemetry

        if not telemetry.enabled:
            return
        registry = registry if registry is not None else telemetry.metrics
        deltas = registry.scalar_deltas(self._delta_reader)
        if deltas:
            self.record("counters", "counter_deltas", deltas=deltas)

    def record_fault(self, exc: BaseException, origin: str = "", **context) -> None:
        """Record a fault event (terminal or survived) into the ring."""
        self.record(
            "fault",
            type(exc).__name__,
            message=str(exc),
            origin=origin,
            **context,
        )

    def on_step(self, result, trainer: str = "") -> None:
        """Record one trainer step boundary plus the counter deltas it caused."""
        from repro import telemetry

        if not telemetry.enabled:
            return
        phases = dict(getattr(result, "phase_seconds", {}) or {})
        self.record(
            "step",
            "train_step",
            trainer=trainer,
            step_index=getattr(result, "step_index", -1),
            loss=float(result),
            phase_seconds=phases,
            bytes_moved=getattr(result, "bytes_moved", 0.0),
        )
        self.record_counter_deltas()

    # --- read side ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    @property
    def dump_count(self) -> int:
        """Postmortem bundles built since construction (survives clear())."""
        return self._dump_count

    @property
    def records(self) -> list[FlightRecord]:
        """Snapshot of the ring contents, oldest first."""
        with self._lock:
            return list(self._records)

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
        """The JSON-ready bundle: fault, ring contents, final counters."""
        from repro import telemetry

        registry = registry if registry is not None else telemetry.metrics
        fault = None
        if exc is not None:
            fault = {
                "type": type(exc).__name__,
                "message": str(exc),
                "devices": [list(d) for d in getattr(exc, "devices", ())],
            }
        records = self.records
        return {
            "schema": POSTMORTEM_SCHEMA,
            "reason": reason,
            "recorded_at_s": self.now(),
            "capacity": self.capacity,
            "num_records": len(records),
            "fault": fault,
            "records": [r.to_json() for r in records],
            "counters": registry.snapshot(),
            **(dict(extra) if extra else {}),
        }

    def dump(
        self,
        reason: str,
        exc: BaseException | None = None,
        path: str | None = None,
        registry=None,
        extra: Mapping[str, object] | None = None,
    ) -> str | None:
        """Build (and, when a directory is configured, write) a bundle.

        Returns the written path, or ``None`` when the bundle stayed
        in memory (no ``path`` argument, no dump directory) **or the
        write failed** — a broken dump directory must not replace the
        terminal failure the caller is about to re-raise.  The bundle
        is always available afterwards at :attr:`last_postmortem`.
        """
        t0 = self._clock()
        bundle = self.postmortem_bundle(reason, exc, registry=registry, extra=extra)
        self.last_postmortem = bundle
        self._dump_count += 1
        out_path = path
        try:
            if out_path is None and self.dump_dir:
                os.makedirs(self.dump_dir, exist_ok=True)
                out_path = os.path.join(
                    self.dump_dir,
                    f"postmortem_{os.getpid()}_{self._dump_count:03d}.json",
                )
            if out_path is not None:
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
        from repro import telemetry

        if telemetry.enabled:
            telemetry.metrics.counter("flight_postmortems", reason=reason).inc()
            telemetry.metrics.gauge("flight_postmortem_seconds").set(
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

    Call sites raise terminal errors from several layers (a dead mesh
    buffer inside a collective, the chaos harness re-raising it); the
    exception object is tagged after the first dump so the same failure
    propagating upward produces exactly one bundle.  Returns the written
    bundle path (``None`` when memory-only or telemetry is disabled).
    """
    from repro import telemetry

    if not telemetry.enabled:
        return None
    if getattr(exc, "_repro_postmortem_done", False):
        return None
    try:
        exc._repro_postmortem_done = True  # type: ignore[attr-defined]
    except AttributeError:  # exotic exception with __slots__: dump anyway
        pass
    rec = recorder if recorder is not None else telemetry.flight_recorder
    rec.record_fault(exc, origin=origin, **context)
    return rec.dump(reason=origin or type(exc).__name__, exc=exc)
