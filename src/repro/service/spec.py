"""Job specs, canonical content keys, and the typed rejection taxonomy.

A :class:`SimJob` names one what-if query against the simulation stack —
a :class:`~repro.core.step_time.StepTimeModel` evaluation, an
accounting-mode :func:`~repro.resilience.chaos.run_chaos` run, a
multi-tenant :mod:`repro.cluster` scenario.  Two properties make it a
*service* spec rather than a function call:

* **Canonical identity.**  :func:`canonical_spec` reduces a job to a
  deterministic JSON form (sorted keys, simulation-relevant fields only —
  the client name and deadline do not change the answer) and
  :attr:`SimJob.content_key` is its SHA-256.  Identical configs hash
  identically, which is what the content-addressed result cache and the
  sweep journal key on.
* **Typed outcomes.**  When the service sheds load it raises one of the
  :class:`ServiceRejection` subclasses — :class:`Overloaded` (queue
  depth / circuit breaker), :class:`RateLimited` (per-client token
  bucket), :class:`DeadlineExceeded` (the job aged out before or during
  execution) — and :class:`JobFailed` when a job exhausted its retry
  budget against crashing workers.  Clients never see a silent drop or a
  bare ``Exception``: every submitted job either returns a payload or
  raises exactly one of these.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field

#: Job classes the service knows how to execute (see ``executors.py``).
JOB_KINDS = ("steptime", "chaos", "cluster")


class ServiceError(RuntimeError):
    """Base class of every error the service layer raises."""


class ServiceRejection(ServiceError):
    """A typed load-shedding rejection: the job was *not* silently dropped.

    ``reason`` is the stable machine-readable tag (``"overloaded"``,
    ``"rate_limited"``, ``"deadline_exceeded"``) used by telemetry labels
    and the load-test tables.
    """

    reason = "rejected"


class Overloaded(ServiceRejection):
    """Queue depth exhausted (or circuit open with no degraded mode)."""

    reason = "overloaded"


class RateLimited(ServiceRejection):
    """The client's token bucket is empty; retry after the refill."""

    reason = "rate_limited"


class DeadlineExceeded(ServiceRejection):
    """The job's deadline passed while queued or executing."""

    reason = "deadline_exceeded"


class JobFailed(ServiceError):
    """The job exhausted its retry budget against worker crashes.

    Terminal: by the time a client sees this, a flight-recorder
    postmortem bundle has been dumped with the attempts' timeline.
    """

    def __init__(self, job: "SimJob", attempts: int, cause: str = "") -> None:
        self.job = job
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"job {job.name!r} failed after {attempts} attempt(s)"
            + (f": {cause}" if cause else "")
        )

    def __reduce__(self):
        return type(self), (self.job, self.attempts, self.cause), self.__dict__


class WorkerCrashError(ServiceError):
    """One worker attempt died mid-job (injected by the crash plan)."""

    def __init__(self, worker: int, job: str, attempt: int) -> None:
        self.worker = worker
        self.job = job
        self.attempt = attempt
        super().__init__(
            f"worker {worker} crashed executing {job!r} (attempt {attempt})"
        )

    def __reduce__(self):
        return type(self), (self.worker, self.job, self.attempt), self.__dict__


def _canonical_value(value):
    """JSON-stable form: tuples become lists, dicts sort, floats stay floats."""
    if isinstance(value, dict):
        return {str(k): _canonical_value(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise TypeError(
        f"job params must be JSON scalars/lists/dicts, got {type(value).__name__}"
    )


def canonical_spec(kind: str, params: dict) -> str:
    """The canonical JSON of a job's simulation-relevant fields.

    Sorted keys, no whitespace variance, tuples and lists identified —
    two specs that mean the same simulation serialize identically, so
    their SHA-256 content keys collide on purpose.
    """
    return json.dumps(
        {"kind": kind, "params": _canonical_value(params)},
        sort_keys=True,
        separators=(",", ":"),
    )


def content_key(kind: str, params: dict) -> str:
    """SHA-256 hex digest of :func:`canonical_spec` — the cache/journal key."""
    return hashlib.sha256(canonical_spec(kind, params).encode()).hexdigest()


@dataclass(frozen=True)
class SimJob:
    """One what-if query: a job class plus its JSON-ready parameters.

    ``name`` is the client-facing label (telemetry, logs, crash plans);
    it does **not** enter the content key — two differently-named
    submissions of the same simulation share a cache entry.
    ``deadline_s`` is a wall-clock budget from submission; ``None`` means
    the job never ages out.

    ``params`` are read once, at construction: the job canonicalises them
    then and keeps the SHA-256 as :attr:`content_key`, which the label,
    the crash plan, the retry jitter, the cache and the journal all reuse.
    A dict mutated afterwards would run under its old key.
    """

    kind: str
    params: dict = field(default_factory=dict)
    name: str = ""
    deadline_s: float | None = None
    #: SHA-256 of :func:`canonical_spec`, computed by ``__post_init__``.
    content_key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"unknown job kind {self.kind!r}; choose from {JOB_KINDS}"
            )
        if not isinstance(self.params, dict):
            raise TypeError(
                f"params must be a JSON object, not {type(self.params).__name__}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        # Eagerly: a spec that cannot hash cannot be queued, cached, or
        # journaled.
        object.__setattr__(self, "content_key", content_key(self.kind, self.params))

    def with_deadline(self, deadline_s: float) -> "SimJob":
        """This job with another deadline, its content key reused."""
        if deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        job = copy.copy(self)
        object.__setattr__(job, "deadline_s", deadline_s)
        return job

    @property
    def label(self) -> str:
        return self.name or f"{self.kind}:{self.content_key[:12]}"
