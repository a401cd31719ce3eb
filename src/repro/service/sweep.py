"""Resumable sweeps: a journaled map of jobs -> payloads, crash-safe.

A sweep is a batch of :class:`~repro.service.spec.SimJob` queries (a
scaling curve, a fault-rate grid) run through the service.  The
:class:`SweepJournal` applies the ``TrainerCheckpoint`` idiom at sweep
level: every completed job is appended to a JSON-lines journal *before*
the sweep moves on, so a sweep killed halfway resumes with **zero
recomputation** — completed entries are served from the journal, and
only the remaining tail executes.

Bit-identity is part of the contract: a resumed sweep returns payloads
bit-identical to an uninterrupted run.  Both paths round-trip every
payload through canonical JSON (Python's float repr round-trips
exactly), so "came from the journal" and "came from a worker" are
indistinguishable to the caller — the property test pins this for
interrupts at every index.

The journal is keyed by content key (the SHA-256 of the canonical spec,
same as the result cache), and its header pins the sweep identity — a
journal from a *different* job set refuses to resume rather than
silently serving wrong answers.  Each record also carries the SHA-256 of
its own canonical JSON, so a flipped byte that still parses is caught:
the resume re-runs from that record instead of serving it.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro import telemetry as _telemetry
from repro.service.spec import ServiceError, ServiceRejection, SimJob

logger = logging.getLogger("repro.service")

#: How many times the sweep retries a typed rejection before giving up.
#: A sweep is a batch client: when the front door says RateLimited or
#: Overloaded it backs off and resubmits instead of failing the sweep.
_SUBMIT_RETRIES = 2000
_SUBMIT_BACKOFF_S = 5e-3


class SweepInterrupted(ServiceError):
    """The sweep was killed mid-run (injected via ``interrupt_after``).

    The journal already holds everything completed so far; re-running
    the same sweep against the same journal resumes past it.
    """

    def __init__(self, completed: int, total: int) -> None:
        self.completed = completed
        self.total = total
        super().__init__(f"sweep interrupted after {completed}/{total} jobs")

    def __reduce__(self):
        return type(self), (self.completed, self.total), self.__dict__


def sweep_id(jobs: Sequence[SimJob]) -> str:
    """Identity of a job set: SHA-256 over the ordered content keys."""
    digest = hashlib.sha256()
    for job in jobs:
        digest.update(job.content_key.encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _record_digest(record: dict) -> str:
    """SHA-256 of a journal record's canonical JSON."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


class SweepJournal:
    """Append-only JSON-lines journal of ``content_key -> payload``.

    Line 1 is a header pinning the sweep id; each subsequent line is one
    completed job, carrying the SHA-256 of its own canonical JSON.  Appends
    flush + fsync before returning, so a job is either durably journaled
    or will re-run — never half-recorded.  The durable prefix ends at the
    first line that is torn (a kill mid-write: no newline, or not JSON) or
    fails its digest (a corrupted byte): that job and every later one
    re-run, and :meth:`start` cuts the file back to the prefix so new
    appends land on a clean line.  A header or record that parses but is
    not what this class writes raises :class:`ServiceError`.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        #: Bytes of the file :meth:`load` trusted (``None``: not loaded).
        self._durable_bytes: int | None = None

    def load(self, expected_sweep_id: str) -> dict[str, dict]:
        """Completed entries, or ``{}`` for a fresh journal.

        Raises :class:`ServiceError` if the journal belongs to a
        different job set — resuming someone else's sweep would serve
        wrong answers with confidence — or is malformed.
        """
        self._durable_bytes = 0
        if not self.path.exists():
            return {}
        # The piece after the last newline is unterminated, so torn.
        *lines, _ = self.path.read_bytes().split(b"\n")
        if not lines:  # no complete header: nothing was journaled
            return {}
        try:
            header = json.loads(lines[0])
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ServiceError(
                f"sweep journal {self.path} has a corrupt header"
            ) from exc
        if not isinstance(header, dict):
            raise ServiceError(f"sweep journal {self.path} header is not an object")
        if header.get("sweep_id") != expected_sweep_id:
            raise ServiceError(
                f"journal {self.path} belongs to sweep "
                f"{str(header.get('sweep_id', '?'))[:12]}..., not "
                f"{expected_sweep_id[:12]}...; refusing to resume"
            )
        entries: dict[str, dict] = {}
        durable = len(lines[0]) + 1
        for number, line in enumerate(lines[1:], start=2):
            if line.strip():
                try:
                    record = json.loads(line)
                except ValueError:
                    logger.warning(
                        "sweep journal %s: line %d is torn; re-running from it",
                        self.path, number,
                    )
                    break
                if not isinstance(record, dict):
                    raise ServiceError(
                        f"sweep journal {self.path} line {number} is not an object"
                    )
                if record.pop("sha256", None) != _record_digest(record):
                    logger.warning(
                        "sweep journal %s: line %d fails its digest; "
                        "re-running from it", self.path, number,
                    )
                    break
                key, payload = record.get("key"), record.get("payload")
                if not isinstance(key, str) or not isinstance(payload, dict):
                    raise ServiceError(
                        f"sweep journal {self.path} line {number} has no key/payload"
                    )
                entries[key] = payload
            durable += len(line) + 1
        self._durable_bytes = durable
        return entries

    def start(self, sid: str, total: int) -> None:
        """Make the file a clean journal of sweep ``sid``: cut a loaded one
        back to its durable prefix, or write the header of a fresh one."""
        if self._durable_bytes is None:
            self.load(sid)
        if self._durable_bytes:
            if self.path.stat().st_size > self._durable_bytes:
                with self.path.open("r+b") as fh:
                    fh.truncate(self._durable_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("w", encoding="utf-8") as fh:
            fh.write(
                json.dumps({"sweep_id": sid, "jobs": total}, sort_keys=True)
                + "\n"
            )
            fh.flush()
            os.fsync(fh.fileno())

    def append(self, key: str, label: str, payload: dict) -> None:
        record = {"key": key, "label": label, "payload": payload}
        record["sha256"] = _record_digest(record)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


@dataclass
class SweepResult:
    """Outcome of one (possibly resumed) sweep, payloads in job order."""

    payloads: list[dict] = field(default_factory=list)
    executed: int = 0
    reused: int = 0

    @property
    def total(self) -> int:
        return self.executed + self.reused


def run_sweep(
    service,
    jobs: Sequence[SimJob],
    journal_path: str | os.PathLike,
    *,
    client: str = "sweep",
    interrupt_after: int | None = None,
) -> SweepResult:
    """Run ``jobs`` through ``service``, journaling each completion.

    Already-journaled jobs are reused without recomputation.  Typed
    rejections (rate limit, overload) back off and resubmit — a sweep is
    a polite batch client, not a burst.  ``interrupt_after=n`` raises
    :class:`SweepInterrupted` after ``n`` fresh executions, simulating a
    kill for the resume tests.
    """
    jobs = list(jobs)
    sid = sweep_id(jobs)
    journal = SweepJournal(journal_path)
    done = journal.load(sid)
    journal.start(sid, len(jobs))

    result = SweepResult()
    for job in jobs:
        key = job.content_key
        if key in done:
            result.reused += 1
            if _telemetry.enabled:
                _telemetry.metrics.counter(
                    "service_sweep_jobs", source="journal"
                ).inc()
            result.payloads.append(done[key])
            continue
        payload = _submit_with_backoff(service, job, client)
        # Round-trip through canonical JSON so a fresh payload is
        # bit-identical to the journaled form a resume would return.
        payload = json.loads(json.dumps(payload, sort_keys=True))
        journal.append(key, job.label, payload)
        done[key] = payload
        result.payloads.append(payload)
        result.executed += 1
        if _telemetry.enabled:
            _telemetry.metrics.counter(
                "service_sweep_jobs", source="executed"
            ).inc()
        if interrupt_after is not None and result.executed >= interrupt_after:
            raise SweepInterrupted(result.executed, len(jobs))
    logger.info(
        "sweep %s...: %d executed, %d reused from journal",
        sid[:12], result.executed, result.reused,
    )
    return result


def _submit_with_backoff(service, job: SimJob, client: str) -> dict:
    for _ in range(_SUBMIT_RETRIES):
        try:
            handle = service.submit(job, client=client)
        except ServiceRejection:
            service._sleep(_SUBMIT_BACKOFF_S)
            continue
        return handle.result()
    raise ServiceError(
        f"sweep could not admit {job.label!r} after {_SUBMIT_RETRIES} tries"
    )
