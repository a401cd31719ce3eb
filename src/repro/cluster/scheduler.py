"""Elastic multi-tenant scheduler: many training jobs on one simulated pod.

The scheduler composes every failure-machinery layer the repo has built —
:class:`~repro.resilience.faults.FaultPlan` chip deaths and host
preemptions, :class:`~repro.resilience.checkpoint.TrainerCheckpoint`
resharding, the grace-window save of
:class:`~repro.resilience.faults.PreemptionSignal`, heartbeat/oracle
detection latency, barrier straggler blame — and runs them *under
contention*: jobs queue, retry admission with the shared
:class:`~repro.resilience.faults.RetryPolicy`, preempt each other by
priority, shrink elastically around dead chips, and regrow into healed or
freed ones.

Time is quantized into cluster **ticks** of ``base_step_seconds``: every
running, unstalled job executes one synchronous training step per tick
(straggler slowdown accrues as stall debt, so a 2x straggler makes real
progress every other tick).  Recovery charges that do not quantize —
detection latency, checkpoint restore transfers, grace-window saves —
are charged to the job's own accounting clock and stall it until the
cluster clock catches up.

Per tick, in deterministic order:

1. fault injection — the plan's chip deaths shrink or evict their owners
   (unannounced: detection latency is charged); the plan's host
   preemptions do the same through the announced grace-window path;
2. healing — chips whose repair window elapsed return to service;
3. admission — pending jobs in (priority, arrival, name) order get a
   rectangular slice, possibly preempting strictly-lower-priority
   tenants (grace-window save, requeue with the checkpoint: zero lost
   steps when the write fits); placement failures retry with bounded
   exponential backoff + deterministic jitter, then reject;
4. elasticity — running jobs regrow in place over healed chips, and
   shrunken jobs migrate to a freed full-size slice elsewhere;
5. execution — one step per running job, checkpoints on the job's
   interval, completions release their slice.

Everything is a pure function of ``(specs, config, plan, seed)``: one
seed replays the whole multi-tenant run, event for event and bit for bit
(:func:`solo_replay` pins the latter per tenant).  Each tenant's
:class:`~repro.cluster.jobs.JobReport` is the only ledger the loop writes;
the ``cluster_*`` telemetry is published from the reports when ``run`` ends.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from repro import telemetry as _telemetry
from repro.cluster.jobs import (
    COMPLETED,
    JOB_STATES,
    PENDING,
    REJECTED,
    RUNNING,
    STATE_COUNTERS,
    TENANT_COUNTERS,
    JobReport,
    JobSpec,
    derive_subseed,
)
from repro.cluster.state import ClusterState
from repro.resilience.faults import (
    Device,
    FaultPlan,
    PreemptionSignal,
    RetryPolicy,
)

logger = logging.getLogger("repro.cluster")

#: Default admission policy: no detection timeout (the scheduler knows a
#: placement failed immediately), 8 bounded attempts backing off 2 s -> ~4
#: min with 25% deterministic jitter to decorrelate tenant retries.
DEFAULT_ADMISSION_POLICY = RetryPolicy(
    timeout_s=0.0,
    max_attempts=8,
    backoff_s=2.0,
    backoff_factor=2.0,
    jitter_frac=0.25,
)

#: Per-step barrier timeout in multiples of the base step time: steps slower
#: than it get their straggler chips blamed through the
#: :mod:`repro.controlplane.barrier` machinery.
STRAGGLER_TIMEOUT = 1.5


@dataclass(frozen=True)
class ClusterConfig:
    """Knobs of the shared pod and its recovery/admission machinery.

    ``heal_after_s`` turns chip deaths into repairable outages (``None``
    means chips never return).  Unannounced deaths are declared by an
    oracle after ``detection_timeout_s``; pass ``detector=`` to
    :class:`ClusterScheduler`/:func:`run_cluster` to substitute a measured
    :class:`~repro.controlplane.heartbeat.HeartbeatDetector`.
    """

    mesh_shape: tuple[int, int]
    chips_per_host: int = 8
    base_step_seconds: float = 1.0
    detection_timeout_s: float = 0.5
    restore_bandwidth_bytes_per_s: float = 1e9
    checkpoint_write_seconds: float = 0.0
    preemption_grace_s: float = 30.0
    heal_after_s: float | None = None
    admission_policy: RetryPolicy = DEFAULT_ADMISSION_POLICY
    max_ticks: int = 10_000
    seed: int = 0

    def __post_init__(self) -> None:
        x, y = self.mesh_shape
        if x < 1 or y < 1:
            raise ValueError("mesh dims must be >= 1")
        if self.chips_per_host < 1:
            raise ValueError("chips_per_host must be >= 1")
        if self.base_step_seconds <= 0:
            raise ValueError("base_step_seconds must be > 0")
        if self.restore_bandwidth_bytes_per_s <= 0:
            raise ValueError("restore bandwidth must be > 0")
        if self.checkpoint_write_seconds < 0:
            raise ValueError("checkpoint_write_seconds must be >= 0")
        if self.preemption_grace_s < 0:
            raise ValueError("preemption_grace_s must be >= 0")
        if self.heal_after_s is not None and self.heal_after_s < 0:
            raise ValueError("heal_after_s must be >= 0")
        if self.max_ticks < 1:
            raise ValueError("max_ticks must be >= 1")


@dataclass
class ClusterResult:
    """Outcome of one cluster run: per-tenant reports plus pod-level totals."""

    jobs: dict[str, JobReport] = field(default_factory=dict)
    ticks: int = 0
    total_seconds: float = 0.0
    chip_seconds_capacity: float = 0.0
    chip_seconds_used: float = 0.0
    #: Every scheduling transition, as ``(tick, event, tenant, info)``.
    events: list[tuple[int, str, str, dict]] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == COMPLETED)

    @property
    def rejected(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == REJECTED)

    @property
    def preemptions(self) -> int:
        return sum(j.preemptions for j in self.jobs.values())

    @property
    def utilization(self) -> float:
        """Chip-seconds spent training over chip-seconds of live capacity."""
        if self.chip_seconds_capacity <= 0:
            return 0.0
        return self.chip_seconds_used / self.chip_seconds_capacity

    @property
    def fairness(self) -> float:
        """Jain's index over the goodput of every tenant that got service.

        1.0 when every admitted tenant saw identical goodput; 1/n when one
        tenant got everything.  Jobs never admitted don't dilute the index
        (their goodput is undefined, not zero).
        """
        goodputs = [
            j.goodput for j in self.jobs.values() if j.admissions > 0
        ]
        if not goodputs:
            return 1.0
        square_of_sum = sum(goodputs) ** 2
        sum_of_squares = sum(g * g for g in goodputs)
        if sum_of_squares == 0.0:
            return 1.0
        return square_of_sum / (len(goodputs) * sum_of_squares)

    @property
    def slo_attainment(self) -> float:
        """Fraction of tenants whose SLO was attained."""
        if not self.jobs:
            return 1.0
        return sum(
            1 for j in self.jobs.values() if j.slo_attained
        ) / len(self.jobs)

    @property
    def mean_goodput(self) -> float:
        served = [j.goodput for j in self.jobs.values() if j.admissions > 0]
        if not served:
            return 0.0
        return sum(served) / len(served)

    def trace(self) -> list[tuple[int, str, str]]:
        """The ``(tick, event, tenant)`` skeleton (what regression tests pin)."""
        return [(tick, event, tenant) for tick, event, tenant, _ in self.events]


class _Job:
    """Mutable runtime of one job (the report carries the durable outcome)."""

    __slots__ = (
        "spec", "report", "trainer", "trainer_base", "batch_fn", "ckpt",
        "ckpt_step", "ckpt_time", "ckpt_bytes", "step", "resume_at_s",
        "next_retry_tick", "attempts", "stall_debt", "retry_key", "by_state",
    )

    def __init__(
        self, spec: JobSpec, cluster_seed: int, by_state: dict[str, set[str]]
    ) -> None:
        self.spec = spec
        self.report = JobReport(tenant=spec.name, priority=spec.priority)
        #: The scheduler's state -> job names index; see :attr:`state`.
        self.by_state = by_state
        by_state[self.report.state].add(spec.name)
        self.trainer = None
        self.trainer_base = _resolve_trainer_config(spec, cluster_seed)
        self.batch_fn = (
            spec.batch_fn_factory(
                derive_subseed(cluster_seed, "batches", spec.name)
            )
            if spec.batch_fn_factory is not None
            else None
        )
        self.ckpt = None
        self.ckpt_step = 0
        self.ckpt_time = 0.0
        self.ckpt_bytes = spec.state_bytes
        self.step = 0
        self.resume_at_s = 0.0
        self.next_retry_tick = spec.arrival_tick
        self.attempts = 0
        self.stall_debt = 0.0
        self.retry_key = derive_subseed(cluster_seed, "retry", spec.name)

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def state(self) -> str:
        return self.report.state

    @state.setter
    def state(self, value: str) -> None:
        """The one writer of ``report.state`` and of the state index."""
        self.by_state[self.report.state].remove(self.spec.name)
        self.by_state[value].add(self.spec.name)
        self.report.state = value


def _resolve_trainer_config(spec: JobSpec, cluster_seed: int):
    """The job's trainer config with its init seed derived from the cluster seed."""
    if spec.trainer_config is None:
        return None
    base = spec.trainer_config
    if base.seed is None:
        base = base.with_(
            seed=derive_subseed(cluster_seed, "init", spec.name)
        )
    return base


class ClusterScheduler:
    """Drive a set of :class:`JobSpec` through one pod under one fault plan."""

    def __init__(
        self,
        specs: list[JobSpec] | tuple[JobSpec, ...],
        config: ClusterConfig,
        *,
        plan: FaultPlan | None = None,
        detector=None,
    ) -> None:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError("job names must be unique")
        self.config = config
        self.plan = plan if plan is not None else FaultPlan()
        if detector is None:
            from repro.controlplane.heartbeat import OracleDetector

            detector = OracleDetector(config.detection_timeout_s)
        self.detector = detector
        self.state = ClusterState(config.mesh_shape, config.chips_per_host)
        self._check_plan()
        #: State -> names of the jobs in it; only ``_Job.state`` moves a name.
        self._by_state: dict[str, set[str]] = {s: set() for s in JOB_STATES}
        self.jobs = {
            s.name: _Job(s, config.seed, self._by_state) for s in specs
        }
        self.result = ClusterResult(
            jobs={name: job.report for name, job in self.jobs.items()}
        )
        self._tick = 0

    def _check_plan(self) -> None:
        """Refuse a fault plan that names a chip or host the pod lacks,
        before tick 0 (an off-pod fault would otherwise raise mid-run or be
        dropped silently)."""
        x_size, y_size = self.config.mesh_shape
        for fault in self.plan.chip_failures + self.plan.stragglers:
            if not self.state.has_chip(fault.device):
                raise ValueError(
                    f"fault plan names device {fault.device}, not on the "
                    f"{x_size}x{y_size} pod: {fault}"
                )
        for signal in self.plan.preemptions:
            if signal.host not in self.state.hosts:
                raise ValueError(
                    f"fault plan names host {signal.host}, but the pod has "
                    f"hosts 0..{len(self.state.hosts) - 1}: {signal}"
                )

    # --- bookkeeping helpers -------------------------------------------------

    def _emit(self, event: str, tenant: str, **info) -> None:
        self.result.events.append((self._tick, event, tenant, info))
        _telemetry.flight_recorder.record(
            "cluster", event, tick=self._tick, tenant=tenant, **info
        )
        logger.debug("tick %d: %s %s %s", self._tick, event, tenant, info)

    def _publish_metrics(self) -> None:
        """Write the run's ``cluster_*`` counters and gauges, once: the
        per-tenant totals of the :class:`JobReport` ledgers (paired by
        ``TENANT_COUNTERS``) and the pod gauges as of the last tick."""
        if not _telemetry.enabled:
            return
        m = _telemetry.metrics
        for name, job in self.jobs.items():
            report = job.report
            for metric, field_name in TENANT_COUNTERS.items():
                amount = getattr(report, field_name)
                if amount:
                    m.counter(metric, tenant=name).inc(amount)
            if report.state in STATE_COUNTERS:
                m.counter(STATE_COUNTERS[report.state], tenant=name).inc()
            if report.slo_attained is not None:
                m.gauge("cluster_slo_attained", tenant=name).set(
                    1.0 if report.slo_attained else 0.0
                )
        m.gauge("cluster_free_chips").set(self.state.free_chips)
        m.gauge("cluster_dead_chips").set(self.state.dead_chips)
        m.gauge("cluster_running_jobs").set(len(self._by_state[RUNNING]))
        m.gauge("cluster_pending_jobs").set(len(self._by_state[PENDING]))

    def _restore_seconds(self, job: _Job) -> float:
        return job.ckpt_bytes / self.config.restore_bandwidth_bytes_per_s

    def _save_checkpoint(
        self, job: _Job, charge_s: float, now_s: float | None = None
    ) -> None:
        """Snapshot the job's full state; ``charge_s`` is the non-overlapped cost."""
        if job.trainer is not None:
            job.ckpt = job.trainer.save_checkpoint()
            job.ckpt_bytes = job.ckpt.nbytes
        job.ckpt_step = job.step
        if now_s is not None:
            job.ckpt_time = now_s
        job.report.checkpoints_taken += 1
        job.report.total_seconds += charge_s
        job.report.timeline.append(("save", job.step))

    def _should_checkpoint(self, job: _Job, now_s: float) -> bool:
        """Per-tenant policy decision; ``None`` keeps the legacy fixed rule."""
        policy = job.spec.checkpoint_policy
        if policy is None:
            return job.step % job.spec.checkpoint_interval == 0
        return policy.should_checkpoint(
            step=job.step,
            now_s=now_s,
            last_checkpoint_step=job.ckpt_step,
            last_checkpoint_time_s=job.ckpt_time,
        )

    def _build_trainer(self, job: _Job, replicas: int, restore: bool) -> None:
        """(Re)construct the job's trainer and optionally restore its checkpoint."""
        if job.trainer_base is not None:
            from repro.core.trainer import make_trainer

            job.trainer = make_trainer(
                job.trainer_base.with_(mesh_shape=(replicas, 1))
            )
        job.report.timeline.append(("build", replicas))
        job.report.replicas = replicas
        if restore:
            if job.trainer is not None:
                job.trainer.restore_checkpoint(job.ckpt)
            job.report.timeline.append(("restore", job.ckpt_step))
            job.step = job.ckpt_step

    # --- fault handling ------------------------------------------------------

    def _handle_chip_deaths(self, now_s: float) -> None:
        hits = [
            dev
            for dev in self.plan.chip_failures_at_step(self._tick)
            if not self.state.is_dead(dev)
        ]
        if hits:
            self._fail_chips(
                hits, now_s, "chip_failure", devices=[list(d) for d in hits]
            )

    def _handle_plan_preemptions(self, now_s: float) -> None:
        """The plan's host evictions: announced chip removals with a grace window."""
        for sig in self.plan.preemptions_at_step(self._tick):
            chips = self.state.hosts.get(sig.host, ())
            lost = [d for d in chips if not self.state.is_dead(d)]
            if lost:
                self._fail_chips(
                    lost, now_s, "host_preemption", grace_s=sig.grace_s,
                    host=sig.host, chips=len(lost),
                )

    def _fail_chips(
        self, dead: list[Device], now_s: float, event: str,
        grace_s: float | None = None, **info,
    ) -> None:
        """Mark the ``dead`` chips, emit ``event``, shrink or evict every owner.

        ``grace_s`` is the announced loss's grace window; ``None`` means the
        chips died unannounced.
        """
        affected: dict[str, list[Device]] = {}
        for dev in dead:
            owner = self.state.fail_chip(dev, now_s)
            if owner is not None:
                affected.setdefault(owner, []).append(dev)
        self._emit(event, "", **info, owners=sorted(affected))
        for name in sorted(affected):
            self._shrink_or_evict(self.jobs[name], affected[name], now_s, grace_s)

    def _shrink_or_evict(
        self,
        job: _Job,
        lost_devices: list[Device],
        now_s: float,
        grace_s: float | None,
    ) -> None:
        """A running job lost chips: shrink onto the survivors or requeue.

        Announced losses (host preemptions) get the grace-window
        best-effort save — zero lost steps when the checkpoint write fits
        inside the window.  Unannounced deaths charge the detector's
        latency as a fleet hang plus the wasted partial step, exactly as
        :func:`~repro.resilience.chaos.run_chaos` does for a single job.
        """
        if job.state != RUNNING:
            return  # pending/terminal jobs hold no slice
        report = job.report
        stall_s = 0.0
        announced = grace_s is not None
        if announced:
            save_s = self._restore_seconds(job)
            if save_s <= grace_s:
                self._save_checkpoint(job, save_s, now_s)
                stall_s += save_s
                report.grace_saves += 1
            lost_steps = job.step - job.ckpt_step
        else:
            latency = self.detector.detection_latency(now_s)
            report.detections += 1
            report.detection_seconds += latency
            stall_s += latency
            # The interrupted step is wasted wall time on top of the rework.
            report.total_seconds += self.config.base_step_seconds
            lost_steps = (job.step - job.ckpt_step) + 1
        report.lost_steps += lost_steps
        survivors = self.state.alive_in(job.name)
        if len(survivors) >= max(job.spec.min_chips, 1):
            # Elastic shrink in place: reshard the checkpoint onto fewer
            # replicas and replay from it.
            restore_s = self._restore_seconds(job)
            stall_s += restore_s
            report.restarts += 1
            report.restart_seconds += stall_s
            report.total_seconds += stall_s
            report.shrinks += 1
            job.resume_at_s = now_s + stall_s
            self._build_trainer(job, len(survivors), restore=True)
            self._emit(
                "shrink", job.name,
                lost=[list(d) for d in lost_devices],
                replicas=len(survivors), lost_steps=lost_steps,
                announced=announced,
            )
        else:
            # Below the elastic floor: give the slice back and requeue with
            # the checkpoint — the job resumes from it on readmission.
            self._requeue(job)
            report.total_seconds += stall_s
            report.evictions += 1
            self._emit(
                "evict", job.name,
                lost_steps=lost_steps, announced=announced,
                survivors=len(survivors),
            )

    def _requeue(self, job: _Job) -> None:
        """Release the job's slice; it waits, rewound to its checkpoint."""
        self.state.release(job.name)
        job.trainer = None
        job.step = job.ckpt_step
        job.state = PENDING
        job.next_retry_tick = self._tick + 1
        job.attempts = 0
        job.report.replicas = 0

    def _handle_heals(self, now_s: float) -> None:
        if self.config.heal_after_s is None:
            return
        healed = self.state.heal_ready(now_s, self.config.heal_after_s)
        for dev in healed:
            self.state.heal_chip(dev)
        if healed:
            self._emit("heal", "", devices=[list(d) for d in healed])

    # --- admission and preemption -------------------------------------------

    def _preemption_plan(self, job: _Job) -> list[_Job] | None:
        """The minimal prefix of lower-priority victims that frees a slice."""
        candidates = sorted(
            (
                other
                for other in map(self.jobs.get, self._by_state[RUNNING])
                if other.spec.priority < job.spec.priority
            ),
            key=lambda other: (other.spec.priority, other.name),
        )
        evicted: list[_Job] = []
        for victim in candidates:
            evicted.append(victim)
            names = frozenset(v.name for v in evicted)
            if self.state.find_anchor(job.spec.slice_shape, evictable=names):
                return evicted
        return None

    def _preempt(self, victim: _Job, now_s: float, by: _Job) -> None:
        """Evict ``victim`` through the announced grace-window path."""
        grace = self.config.preemption_grace_s
        signals = [
            PreemptionSignal(host=h, at_step=self._tick, grace_s=grace)
            for h in self.state.hosts_of(victim.name)
        ]
        grace_s = min(sig.grace_s for sig in signals)
        save_s = self._restore_seconds(victim)
        saved_in_grace = save_s <= grace_s
        report = victim.report
        if saved_in_grace:
            self._save_checkpoint(victim, save_s, now_s)
            report.grace_saves += 1
        # Zero after a grace-window save: the checkpoint is at this step.
        lost = victim.step - victim.ckpt_step
        report.lost_steps += lost
        self._requeue(victim)
        report.preemptions += 1
        self._emit(
            "preempt", victim.name,
            by=by.name, hosts=[sig.host for sig in signals],
            saved_in_grace=saved_in_grace, lost_steps=lost,
        )
        logger.warning(
            "tick %d: %s (prio %d) preempted %s (prio %d): %s",
            self._tick, by.name, by.spec.priority, victim.name,
            victim.spec.priority,
            "saved in grace window" if saved_in_grace
            else f"{lost} steps lost",
        )

    def _try_admit(self, job: _Job, now_s: float) -> bool:
        slc = self.state.allocate(job.name, job.spec.slice_shape)
        if slc is None:
            victims = self._preemption_plan(job)
            if victims is None:
                return False
            for victim in victims:
                self._preempt(victim, now_s, by=job)
            slc = self.state.allocate(job.name, job.spec.slice_shape)
            assert slc is not None, "eviction plan failed to free a slice"
        report = job.report
        resuming = report.admissions > 0
        job.state = RUNNING
        job.attempts = 0
        report.admissions += 1
        if report.admitted_tick is None:
            report.admitted_tick = self._tick
        replicas = len(self.state.alive_in(job.name))
        if resuming:
            # Moving the checkpoint back onto the new slice is a restart.
            restore_s = self._restore_seconds(job)
            report.restarts += 1
            report.restart_seconds += restore_s
            report.total_seconds += restore_s
            job.resume_at_s = now_s + restore_s
            self._build_trainer(job, replicas, restore=True)
        else:
            job.resume_at_s = now_s
            self._build_trainer(job, replicas, restore=False)
            # Initial snapshot before any work, as run_chaos takes one.
            self._save_checkpoint(job, 0.0, now_s)
        self._emit(
            "admit", job.name,
            slice=[slc.x0, slc.y0, slc.width, slc.height],
            replicas=replicas, resuming=resuming,
        )
        return True

    def _run_admission(self, now_s: float) -> None:
        policy = self.config.admission_policy
        waiting = sorted(
            (
                job
                for job in map(self.jobs.get, self._by_state[PENDING])
                if self._tick >= job.spec.arrival_tick
            ),
            key=lambda job: (
                -job.spec.priority, job.spec.arrival_tick, job.name,
            ),
        )
        for job in waiting:
            report = job.report
            report.queue_wait_ticks += 1
            if report.admissions > 0:
                # A previously served tenant's wait is real wall time lost.
                report.total_seconds += self.config.base_step_seconds
            if self._tick < job.next_retry_tick:
                continue
            if self._try_admit(job, now_s):
                continue
            job.attempts += 1
            if job.attempts >= policy.max_attempts:
                job.state = REJECTED
                self._emit("reject", job.name, attempts=job.attempts)
                logger.warning(
                    "tick %d: %s rejected after %d admission attempts",
                    self._tick, job.name, job.attempts,
                )
                if _telemetry.enabled:
                    # The registry holds no cluster_* counters until the run
                    # ends, so the bundle carries the ledgers themselves.
                    _telemetry.flight_recorder.dump(
                        reason=f"tenant_rejected:{job.name}",
                        extra={
                            "tenants": {
                                name: other.report.ledger_dict()
                                for name, other in self.jobs.items()
                            }
                        },
                    )
                continue
            delay_s = policy.delay_after(job.attempts, key=job.retry_key)
            job.next_retry_tick = self._tick + max(
                1, math.ceil(delay_s / self.config.base_step_seconds)
            )
            report.admission_retries += 1
            self._emit(
                "admission_retry", job.name,
                attempt=job.attempts, delay_s=round(delay_s, 6),
                next_tick=job.next_retry_tick,
            )

    # --- elasticity ----------------------------------------------------------

    def _run_elasticity(self, now_s: float) -> None:
        """Regrow running jobs over healed chips; migrate shrunken jobs."""
        for name in sorted(self._by_state[RUNNING]):
            job = self.jobs[name]
            if now_s < job.resume_at_s:
                continue
            alive = self.state.alive_in(name)
            if len(alive) > job.report.replicas:
                # Chips inside the slice healed: expand onto them at a
                # checkpoint boundary (save -> rebuild bigger -> restore).
                self._resize(job, len(alive), now_s, kind="regrow")
            elif len(alive) < job.spec.num_chips:
                # Running degraded: a full-size slice freed up elsewhere
                # (a tenant finished, or healing restored another region).
                anchor = self.state.find_anchor(
                    job.spec.slice_shape, evictable=frozenset((name,))
                )
                if anchor is not None:
                    self.state.release(name)
                    slc = self.state.allocate(name, job.spec.slice_shape)
                    assert slc is not None
                    self._resize(
                        job, len(self.state.alive_in(name)), now_s,
                        kind="migrate",
                    )

    def _resize(self, job: _Job, replicas: int, now_s: float, kind: str) -> None:
        """Announced replica-count change at a checkpoint boundary."""
        self._save_checkpoint(job, self.config.checkpoint_write_seconds, now_s)
        restore_s = self._restore_seconds(job)
        job.report.total_seconds += restore_s
        job.resume_at_s = now_s + self.config.checkpoint_write_seconds + restore_s
        self._build_trainer(job, replicas, restore=True)
        if kind == "regrow":
            job.report.regrows += 1
        else:
            job.report.migrations += 1
        self._emit(kind, job.name, replicas=replicas)

    # --- execution -----------------------------------------------------------

    def _blame_stragglers(self, job: _Job, alive, slowdown: float) -> None:
        """Attribute a slow step through the control-plane barrier machinery."""
        from repro.controlplane.barrier import resolve_barrier

        _, y_size = self.config.mesh_shape
        base = self.config.base_step_seconds
        arrivals = {
            x * y_size + y: base * self.plan.straggler_factor((x, y), self._tick)
            for (x, y) in alive
        }
        result = resolve_barrier(arrivals, timeout_s=base * STRAGGLER_TIMEOUT)
        job.report.straggler_blames += len(result.stragglers)

    def _run_steps(self, now_s: float) -> None:
        base = self.config.base_step_seconds
        for name in sorted(self._by_state[RUNNING]):
            job = self.jobs[name]
            if now_s < job.resume_at_s:
                continue
            alive = self.state.alive_in(name)
            slowdown = self.plan.slowdown_at(self._tick, alive)
            if slowdown > 1.0:
                self._blame_stragglers(job, alive, slowdown)
                job.stall_debt += (slowdown - 1.0) * base
                if job.stall_debt >= base:
                    # The synchronous step is still in flight: the fleet
                    # waits on its slowest chip and makes no progress.
                    job.stall_debt -= base
                    job.report.total_seconds += base
                    job.report.straggler_stall_ticks += 1
                    continue
            report = job.report
            if job.trainer is not None:
                x, labels = job.batch_fn(job.step)
                result = job.trainer.step(x, labels)
                del result  # the loss is the job's own business
            report.record_run_step(job.step)
            report.steps_executed += 1
            report.total_seconds += base
            job.step += 1
            self.result.chip_seconds_used += len(alive) * base
            if job.step >= job.spec.target_steps:
                self._complete(job, now_s + base)
            elif self._should_checkpoint(job, now_s + base):
                self._save_checkpoint(
                    job, self.config.checkpoint_write_seconds, now_s + base
                )

    def _complete(self, job: _Job, finish_s: float) -> None:
        report = job.report
        report.useful_seconds = (
            job.spec.target_steps * self.config.base_step_seconds
        )
        report.finish_s = finish_s
        report.completed_tick = self._tick
        if job.trainer is not None:
            report.final_params = job.trainer.params
        self.state.release(job.name)
        job.trainer = None
        job.state = COMPLETED
        self._emit(
            "complete", job.name,
            steps=job.step, goodput=round(report.goodput, 6),
        )

    # --- main loop -----------------------------------------------------------

    def run(self) -> ClusterResult:
        try:
            config = self.config
            live = (self._by_state[PENDING], self._by_state[RUNNING])
            while self._tick < config.max_ticks and any(live):
                now_s = self._tick * config.base_step_seconds
                self._handle_chip_deaths(now_s)
                self._handle_plan_preemptions(now_s)
                self._handle_heals(now_s)
                self._run_admission(now_s)
                self._run_elasticity(now_s)
                self._run_steps(now_s)
                self.result.chip_seconds_capacity += (
                    self.state.total_chips - self.state.dead_chips
                ) * config.base_step_seconds
                self._tick += 1
            self.result.ticks = self._tick
            self.result.total_seconds = self._tick * config.base_step_seconds
            for job in self.jobs.values():
                report = job.report
                if job.state == RUNNING:
                    # Horizon ended mid-run: progress so far is the useful work.
                    report.useful_seconds = (
                        job.step * config.base_step_seconds
                    )
                    if job.trainer is not None:
                        report.final_params = job.trainer.params
                report.slo_attained = (
                    job.state == COMPLETED
                    and report.goodput >= job.spec.slo_goodput
                    and (
                        job.spec.deadline_s is None
                        or (
                            report.finish_s is not None
                            and report.finish_s <= job.spec.deadline_s
                        )
                    )
                )
            logger.info(
                "cluster run done: %d ticks, %d/%d completed, %d rejected, "
                "%d preemptions, utilization %.3f, fairness %.3f",
                self.result.ticks, self.result.completed, len(self.jobs),
                self.result.rejected, self.result.preemptions,
                self.result.utilization, self.result.fairness,
            )
            return self.result
        finally:
            # Also on a raise: the counters of the ticks that did run.
            self._publish_metrics()


def run_cluster(
    specs,
    config: ClusterConfig,
    *,
    plan: FaultPlan | None = None,
    detector=None,
) -> ClusterResult:
    """Run ``specs`` through one pod under ``plan`` (see :class:`ClusterScheduler`)."""
    return ClusterScheduler(
        specs, config, plan=plan, detector=detector
    ).run()


def solo_replay(
    spec: JobSpec, report: JobReport, cluster_seed: int
) -> dict[str, np.ndarray] | None:
    """Re-execute one tenant's recorded timeline with the job alone.

    Walks the ``("build" | "restore" | "save" | "run", ...)`` ops of the
    job's :class:`~repro.cluster.jobs.JobReport` timeline against a fresh
    trainer built from the same derived sub-seeds, with no cluster, no
    other tenants, and no fault machinery.  The multi-tenant run's final
    parameters must match this bit-for-bit — packing many tenants onto
    one pod never contaminates anyone's numerics.  Returns ``None`` for
    accounting-only jobs (nothing to replay).
    """
    if spec.trainer_config is None:
        return None
    from repro.core.trainer import make_trainer

    base = _resolve_trainer_config(spec, cluster_seed)
    batch_fn = spec.batch_fn_factory(
        derive_subseed(cluster_seed, "batches", spec.name)
    )
    trainer = None
    ckpt = None
    for op in report.timeline:
        kind = op[0]
        if kind == "build":
            trainer = make_trainer(base.with_(mesh_shape=(op[1], 1)))
        elif kind == "save":
            ckpt = trainer.save_checkpoint()
        elif kind == "restore":
            if ckpt is None or ckpt.step_index != op[1]:
                # The recorded restore must target the last saved snapshot;
                # anything else means the timeline is corrupt.
                raise ValueError(
                    f"timeline restore targets step {op[1]}, "
                    f"last save was {None if ckpt is None else ckpt.step_index}"
                )
            trainer.restore_checkpoint(ckpt)
        elif kind == "run":
            for step in range(op[1], op[2]):
                trainer.step(*batch_fn(step))
        else:  # pragma: no cover - future-proofing
            raise ValueError(f"unknown timeline op {op!r}")
    return trainer.params if trainer is not None else None
