"""Job descriptions, per-tenant reports, and single-seed RNG splitting.

A :class:`JobSpec` declares one tenant's training job — the slice shape it
wants, its priority, its SLO — and, in real-numerics mode, the
:class:`~repro.core.trainer.TrainerConfig` it runs through
:func:`~repro.core.trainer.make_trainer`.  The scheduler turns each spec
into a :class:`JobReport`, which extends the repo-wide
:class:`~repro.resilience.chaos.GoodputAccounting` schema with the tenant
lifecycle (admissions, preemptions, shrinks, regrows, SLO attainment) and
a replayable **timeline** of every trainer-visible operation.

Reproducibility contract (:func:`~repro.seeding.derive_subseed`, which
this module re-exports): every random choice of a multi-job chaos run —
the pod's fault plan, each job's trainer init, each job's batch stream,
each tenant's retry jitter — is derived from the *single* cluster seed
through a labeled hash path, so one ``--seed`` replays the whole cluster
bit-for-bit and two tenants never share an RNG stream by accident.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.refuse import count, fraction, non_negative, positive
from repro.resilience.chaos import BatchFn, GoodputAccounting
from repro.seeding import derive_subseed  # noqa: F401  (re-exported)

#: Job lifecycle states (plain strings so tables/JSON stay readable).
PENDING = "pending"
RUNNING = "running"
COMPLETED = "completed"
REJECTED = "rejected"

JOB_STATES = (PENDING, RUNNING, COMPLETED, REJECTED)

#: The per-tenant telemetry of a cluster run: ``cluster_*`` counter -> the
#: :class:`JobReport` field it totals.  The report is the only ledger the
#: scheduler keeps; the counters are published from it when the run ends.
TENANT_COUNTERS = {
    "cluster_steps": "steps_executed",
    "cluster_lost_steps": "lost_steps",
    "cluster_admissions": "admissions",
    "cluster_admission_retries": "admission_retries",
    "cluster_preemptions": "preemptions",
    "cluster_evictions": "evictions",
    "cluster_shrinks": "shrinks",
    "cluster_regrows": "regrows",
    "cluster_migrates": "migrations",
    "cluster_grace_saves": "grace_saves",
    "cluster_straggler_blames": "straggler_blames",
    "cluster_straggler_stall_ticks": "straggler_stall_ticks",
}
#: Terminal state -> the counter a tenant ending in it adds one to.
STATE_COUNTERS = {
    COMPLETED: "cluster_completions",
    REJECTED: "cluster_rejections",
}


@dataclass(frozen=True)
class JobSpec:
    """One tenant's declared training job.

    ``slice_shape`` is the rectangular chip slice the job wants (the
    scheduler may also place its rotation); ``min_chips`` is the elastic
    floor — chip deaths shrink the job down to it before the job is
    evicted and requeued.  ``priority`` is strict: a higher-priority
    arrival may preempt lower-priority tenants to make room.

    In real-numerics mode (``trainer_config`` set) the job trains an
    actual model; ``batch_fn_factory(job_seed)`` must build the
    deterministic global-batch function (same data order at every replica
    count — the global batch must stay divisible by every survivor count
    the fault plan can produce).  Without a trainer config the job runs in
    accounting-only mode over ``state_bytes`` of checkpoint payload.

    The SLO is attained when the job completes with at least
    ``slo_goodput`` goodput and, if ``deadline_s`` is set, finishes by
    that cluster wall-clock time.

    ``checkpoint_policy`` is a per-tenant opt-in: a
    :class:`~repro.controlplane.checkpointing.CheckpointPolicy` (e.g.
    :class:`~repro.controlplane.checkpointing.RiskAdaptive`) — a
    high-hazard tenant can checkpoint on the Young/Daly schedule while
    its neighbors keep the step interval.  ``None`` (the default) means
    ``StepInterval(checkpoint_interval)``, the rule
    :func:`~repro.resilience.chaos.run_chaos` applies: save once
    ``checkpoint_interval`` steps have run since the last save, whatever
    made that one.
    """

    name: str
    slice_shape: tuple[int, int]
    target_steps: int
    priority: int = 0
    arrival_tick: int = 0
    min_chips: int = 1
    checkpoint_interval: int = 5
    state_bytes: int = 0
    trainer_config: Any = None
    batch_fn_factory: Callable[[int], BatchFn] | None = None
    slo_goodput: float = 0.0
    deadline_s: float | None = None
    checkpoint_policy: Any = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("job needs a non-empty name")
        w, h = self.slice_shape
        count("slice_shape", w)
        count("slice_shape", h)
        count("target_steps", self.target_steps)
        count("arrival_tick", self.arrival_tick, minimum=0)
        if count("min_chips", self.min_chips) > self.num_chips:
            raise ValueError("min_chips must be in [1, slice chips]")
        count("checkpoint_interval", self.checkpoint_interval)
        non_negative("state_bytes", self.state_bytes)
        fraction("slo_goodput", self.slo_goodput)
        if self.deadline_s is not None:
            positive("deadline_s", self.deadline_s)
        if self.trainer_config is not None:
            if self.batch_fn_factory is None:
                raise ValueError(
                    "real-numerics jobs need a batch_fn_factory(job_seed)"
                )
            # Every recovery path of the scheduler goes through a checkpoint.
            self.trainer_config.require_checkpointing()

    @property
    def num_chips(self) -> int:
        return self.slice_shape[0] * self.slice_shape[1]


@dataclass
class JobReport(GoodputAccounting):
    """Per-tenant outcome: the shared goodput schema plus the lifecycle.

    ``timeline`` is the replayable record of every trainer-visible
    operation the scheduler performed for this job, as tuples:

    * ``("build", replicas)`` — (re)construct the trainer for that many
      replicas (fresh init from the job's derived seed);
    * ``("restore", ckpt_step)`` — load the last checkpoint saved at that
      step;
    * ``("save", step)`` — snapshot the full training state;
    * ``("run", start, end)`` — execute steps ``[start, end)``.

    :func:`repro.cluster.scheduler.solo_replay` executes exactly this
    sequence with the job alone on a machine and must land on
    bit-identical final parameters — multi-tenancy never contaminates a
    tenant's numerics.
    """

    tenant: str = ""
    priority: int = 0
    state: str = PENDING
    admitted_tick: int | None = None
    completed_tick: int | None = None
    finish_s: float | None = None
    replicas: int = 0
    admissions: int = 0
    admission_retries: int = 0
    evictions: int = 0
    shrinks: int = 0
    regrows: int = 0
    migrations: int = 0
    queue_wait_ticks: int = 0
    #: Best-effort saves that fit a preemption/host-eviction grace window.
    grace_saves: int = 0
    #: Chips blamed by the step barrier, and ticks lost waiting on them.
    straggler_blames: int = 0
    straggler_stall_ticks: int = 0
    slo_attained: bool | None = None
    timeline: list[tuple] = field(default_factory=list)
    final_params: dict[str, np.ndarray] | None = None

    def ledger_dict(self) -> dict[str, object]:
        """Every scalar of the ledger plus the derived rates, JSON-ready
        (what a mid-run postmortem carries in place of registry counters)."""
        scalars = {
            name: value
            for name, value in vars(self).items()
            if name not in ("timeline", "final_params")
        }
        return {**scalars, **self.accounting_dict()}

    def record_run_step(self, step: int) -> None:
        """Extend the trailing ``("run", ...)`` segment with one step."""
        timeline = self.timeline
        if timeline:
            last = timeline[-1]
            if last[0] == "run" and last[2] == step:
                timeline[-1] = ("run", last[1], step + 1)
                return
        timeline.append(("run", step, step + 1))
