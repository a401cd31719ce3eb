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
3. admission — the pending jobs due for an attempt this tick, in
   (priority, arrival, name) order, get a rectangular slice, possibly
   preempting strictly-lower-priority tenants (grace-window save, requeue
   with the checkpoint: zero lost steps when the write fits); placement
   failures retry with bounded exponential backoff + deterministic
   jitter, then reject;
4. elasticity — running jobs regrow in place over healed chips, and
   shrunken jobs migrate to a freed full-size slice elsewhere;
5. execution — one step per running job, checkpoints on the job's
   interval, completions release their slice.

A tick pays for what changed: the queues are kept in their scan order as
jobs move, and a placement that failed is not asked again until the
allocation map changes (``ClusterState.version``).

Everything is a pure function of ``(specs, config, plan, seed)``: one
seed replays the whole multi-tenant run, event for event and bit for bit
(:func:`solo_replay` pins the latter per tenant).  Each tenant's
:class:`~repro.cluster.jobs.JobReport` is the only ledger the loop writes;
the ``cluster_*`` telemetry is published from the reports when ``run`` ends.
"""

from __future__ import annotations

import bisect
import functools
import logging
import math
import operator
from collections.abc import Mapping
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
)
from repro.cluster.state import ClusterState
from repro.controlplane.barrier import resolve_barrier
from repro.controlplane.checkpointing import StepInterval
from repro.controlplane.heartbeat import OracleDetector
from repro.refuse import count, non_negative
from repro.resilience.chaos import (
    Recovery, check_plan, check_recovery_knobs, trainer_for,
)
from repro.resilience.faults import Device, FaultPlan, RetryPolicy
from repro.seeding import derive_subseed

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
        check_recovery_knobs(self)
        non_negative("preemption_grace_s", self.preemption_grace_s)
        if self.heal_after_s is not None:
            non_negative("heal_after_s", self.heal_after_s)
        count("max_ticks", self.max_ticks)


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
        "spec", "name", "order", "fit", "report", "rec", "batch_fn", "step",
        "resume_at_s", "next_retry_tick", "wait_from", "attempts",
        "stall_debt", "retry_key", "intact", "by_state", "running", "policy",
    )

    def __init__(
        self, spec: JobSpec, config: ClusterConfig, detector,
        by_state: dict[str, set[str]], running: list[_Job],
    ) -> None:
        self.spec = spec
        self.name = spec.name
        #: The admission order: higher priority first, then arrival, then name.
        self.order = (-spec.priority, spec.arrival_tick, spec.name)
        #: What an admission placement depends on besides the map.
        self.fit = (spec.slice_shape, spec.priority, spec.min_chips)
        self.report = JobReport(tenant=spec.name, priority=spec.priority)
        #: The scheduler's state -> job names index and its name-ordered
        #: running jobs; see :attr:`state`.
        self.by_state = by_state
        self.running = running
        by_state[self.report.state].add(spec.name)
        #: When to checkpoint: the tenant's policy, else ``run_chaos``'s rule.
        self.policy = spec.checkpoint_policy or StepInterval(spec.checkpoint_interval)
        #: Trainer, checkpoint slot and failure charges; records the timeline.
        self.rec = Recovery(
            self.report, config.restore_bandwidth_bytes_per_s, detector,
            ckpt_bytes=spec.state_bytes, timeline=self.report.timeline,
            build_trainer=_trainer_builder(spec, config.seed),
        )
        batches = spec.batch_fn_factory
        self.batch_fn = None if batches is None else batches(
            derive_subseed(config.seed, "batches", spec.name)
        )
        self.step = 0
        self.resume_at_s = 0.0
        self.next_retry_tick = spec.arrival_tick
        #: First tick of the current wait not yet in ``queue_wait_ticks``.
        self.wait_from = spec.arrival_tick
        self.attempts = 0
        self.stall_debt = 0.0
        self.retry_key = derive_subseed(config.seed, "retry", spec.name)
        #: Trains on its whole slice with every chip alive: nothing for
        #: elasticity to do.  Set when the trainer is built, cleared when
        #: a chip of the slice heals.
        self.intact = False

    @property
    def state(self) -> str:
        return self.report.state

    @state.setter
    def state(self, value: str) -> None:
        """The one writer of ``report.state``, of the state index and of
        the running list."""
        old = self.report.state
        self.by_state[old].remove(self.name)
        self.by_state[value].add(self.name)
        if old == RUNNING:
            self.running.remove(self)
        elif value == RUNNING:
            bisect.insort(self.running, self, key=_NAME)
        self.report.state = value

    def settle_wait(self, upto: int) -> None:
        """Add the ticks ``wait_from .. upto - 1`` to ``queue_wait_ticks``."""
        if upto > self.wait_from:
            self.report.queue_wait_ticks += upto - self.wait_from
            self.wait_from = upto


_NAME = operator.attrgetter("name")
_ORDER = operator.attrgetter("order")


def _cluster_record(t: float, event: str, tick: int, tenant: str, info: dict) -> list:
    """The flight record of one :meth:`ClusterScheduler._emit`, built when
    the ring is read."""
    return [_telemetry.FlightRecord(
        t, "cluster", event, {"tick": tick, "tenant": tenant, **info}
    )]


class _TenantLedgers(Mapping):
    """A rejection bundle's ``tenants`` extra: every tenant's ledger as of
    the dump, kept as copies of its report's fields and made into
    :meth:`JobReport.ledger_dict` values when the bundle is built."""

    def __init__(self, jobs: Mapping[str, "_Job"]) -> None:
        self._fields = {name: dict(vars(job.report)) for name, job in jobs.items()}

    def __getitem__(self, key: str) -> dict[str, dict]:
        if key != "tenants":
            raise KeyError(key)
        ledgers = {}
        for name, fields in self._fields.items():
            report = JobReport.__new__(JobReport)
            vars(report).update(fields)
            ledgers[name] = report.ledger_dict()
        return ledgers

    def __iter__(self):
        return iter(("tenants",))

    def __len__(self) -> int:
        return 1


def _trainer_builder(spec: JobSpec, cluster_seed: int):
    """``replicas -> trainer`` for the job (``None`` in accounting mode), its
    init seed derived from the cluster seed."""
    if spec.trainer_config is None:
        return None
    base = spec.trainer_config
    if base.seed is None:
        base = base.with_(
            seed=derive_subseed(cluster_seed, "init", spec.name)
        )
    return functools.partial(trainer_for, base)


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
            detector = OracleDetector(config.detection_timeout_s)
        self.state = ClusterState(config.mesh_shape, config.chips_per_host)
        check_plan(self.plan, config.mesh_shape, self.state.hosts)
        #: State -> names of the jobs in it; only ``_Job.state`` moves a name.
        self._by_state: dict[str, set[str]] = {s: set() for s in JOB_STATES}
        #: The running jobs in name order (how elasticity and execution
        #: visit them); also kept by ``_Job.state``.
        self._running: list[_Job] = []
        self.jobs = {
            s.name: _Job(s, config, detector, self._by_state, self._running)
            for s in specs
        }
        self.result = ClusterResult(
            jobs={name: job.report for name, job in self.jobs.items()}
        )
        self._tick = 0
        #: Waiting jobs by the tick of their next admission attempt, each
        #: list in admission order; a tick's list is popped at its tick.
        self._due: dict[int, list[_Job]] = {}
        for job in self.jobs.values():
            self._enqueue(job, job.next_retry_tick)
        #: Waiting jobs that were served before, in admission order.
        self._served: list[_Job] = []
        #: Ticks whose admission phase has begun: every waiting job owes
        #: ``queue_wait_ticks`` up to here (see :meth:`_settle_waits`).
        self._waited = 0
        #: Placement questions that failed on map version ``_fits_version``
        #: (a question asked of an older map can never come up again).
        self._failed_fits: set = set()
        self._fits_version = self.state.version

    # --- bookkeeping helpers -------------------------------------------------

    def _emit(self, event: str, tenant: str, **info) -> None:
        self.result.events.append((self._tick, event, tenant, info))
        _telemetry.flight_recorder.record_lazy(
            _cluster_record, event, self._tick, tenant, info
        )
        logger.debug("tick %d: %s %s %s", self._tick, event, tenant, info)

    def _publish_metrics(self) -> None:
        """Settle the ledgers, then write the run's ``cluster_*`` counters
        and gauges, once: the per-tenant totals of the :class:`JobReport`
        ledgers (paired by ``TENANT_COUNTERS``) and the pod gauges as of
        the last tick."""
        self._settle_waits()
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
        m.gauge("cluster_running_jobs").set(len(self._running))
        m.gauge("cluster_pending_jobs").set(len(self._by_state[PENDING]))

    def _should_checkpoint(self, job: _Job, now_s: float) -> bool:
        """The job's checkpoint policy, asked after a step completes."""
        return job.policy.should_checkpoint(
            step=job.step,
            now_s=now_s,
            last_checkpoint_step=job.rec.ckpt_step,
            last_checkpoint_time_s=job.rec.ckpt_time,
        )

    def _build_trainer(self, job: _Job, replicas: int, restore: bool) -> None:
        """(Re)construct the job's trainer and optionally restore its checkpoint."""
        job.rec.build(replicas)
        job.report.replicas = replicas
        job.intact = replicas == job.spec.num_chips
        if restore:
            job.step = job.rec.restore()

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

        Announced losses (host preemptions) get the grace-window save;
        unannounced deaths charge the wasted base step and the detector's
        latency — through the same :class:`~repro.resilience.chaos.Recovery`
        body :func:`~repro.resilience.chaos.run_chaos` charges.
        """
        if job.state != RUNNING:
            return  # pending/terminal jobs hold no slice
        report = job.report
        announced = grace_s is not None
        if announced:
            _, lost_steps = job.rec.grace_save(job.step, grace_s, now_s)
            hang_s = 0.0
        else:
            lost_steps, hang_s = job.rec.death(
                job.step, self.config.base_step_seconds, now_s
            )
        survivors = self.state.alive_in(job.name)
        if len(survivors) >= max(job.spec.min_chips, 1):
            # Elastic shrink in place: reshard the checkpoint onto fewer
            # replicas and replay from it.
            job.resume_at_s = now_s + job.rec.restart(lost_steps, hang_s)
            report.shrinks += 1
            self._build_trainer(job, len(survivors), restore=True)
            self._emit(
                "shrink", job.name,
                lost=[list(d) for d in lost_devices],
                replicas=len(survivors), lost_steps=lost_steps,
                announced=announced,
            )
        else:
            # Below the elastic floor: give the slice back and requeue with
            # the checkpoint; readmission charges the restore.
            self._requeue(job)
            report.lost_steps += lost_steps
            report.total_seconds += hang_s
            report.evictions += 1
            self._emit(
                "evict", job.name,
                lost_steps=lost_steps, announced=announced,
                survivors=len(survivors),
            )

    def _requeue(self, job: _Job) -> None:
        """Release the job's slice; it waits, rewound to its checkpoint.

        Its wait counts from the first tick whose admission has not begun:
        this one when a fault evicts it, the next when a preemption does.
        """
        self.state.release(job.name)
        job.rec.trainer = None
        job.step = job.rec.ckpt_step
        job.state = PENDING
        job.attempts = 0
        job.report.replicas = 0
        job.wait_from = self._waited
        bisect.insort(self._served, job, key=_ORDER)
        self._enqueue(job, self._tick + 1)

    def _handle_heals(self, now_s: float) -> None:
        if self.config.heal_after_s is None:
            return
        healed = self.state.heal_ready(now_s, self.config.heal_after_s)
        for dev in healed:
            owner = self.state.heal_chip(dev)
            if owner is not None:
                self.jobs[owner].intact = False  # it may regrow
        if healed:
            self._emit("heal", "", devices=[list(d) for d in healed])

    # --- admission and preemption -------------------------------------------

    def _preemption_plan(self, job: _Job) -> list[_Job] | None:
        """The minimal prefix of lower-priority victims that frees a slice."""
        # Stable on the name-ordered running list: (priority, name) order.
        candidates = sorted(
            (
                other for other in self._running
                if other.spec.priority < job.spec.priority
            ),
            key=lambda other: other.spec.priority,
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
        hosts = list(self.state.hosts_of(victim.name))
        saved_in_grace, lost = victim.rec.grace_save(
            victim.step, self.config.preemption_grace_s, now_s
        )
        report = victim.report
        report.lost_steps += lost
        self._requeue(victim)
        report.preemptions += 1
        self._emit(
            "preempt", victim.name, by=by.name, hosts=hosts,
            saved_in_grace=saved_in_grace, lost_steps=lost,
        )
        logger.warning(
            "tick %d: %s (prio %d) preempted %s (prio %d): %s",
            self._tick, by.name, by.spec.priority, victim.name,
            victim.spec.priority,
            "saved in grace window" if saved_in_grace
            else f"{lost} steps lost",
        )

    def _failed_before(self, question) -> bool:
        """Whether ``question`` already failed on the current map."""
        return (
            self._fits_version == self.state.version
            and question in self._failed_fits
        )

    def _remember_failure(self, question) -> None:
        """Record that ``question`` failed on the current map."""
        version = self.state.version
        if self._fits_version != version:
            self._failed_fits.clear()
            self._fits_version = version
        self._failed_fits.add(question)

    def _try_admit(self, job: _Job, now_s: float) -> bool:
        """Place ``job``, preempting if its priority allows.

        The fit and the preemption plan read only the map and the running
        set, which change only with the map's version: a question that
        failed at this version fails again without being asked.
        """
        if self._failed_before(job.fit):
            return False
        slc = self.state.allocate(job.name, job.spec.slice_shape)
        if slc is None:
            victims = self._preemption_plan(job)
            if victims is None:
                self._remember_failure(job.fit)
                return False
            for victim in victims:
                self._preempt(victim, now_s, by=job)
            slc = self.state.allocate(job.name, job.spec.slice_shape)
            assert slc is not None, "eviction plan failed to free a slice"
        report = job.report
        resuming = report.admissions > 0
        self._leave_queue(job)
        job.state = RUNNING
        job.attempts = 0
        report.admissions += 1
        if report.admitted_tick is None:
            report.admitted_tick = self._tick
        replicas = len(self.state.alive_in(job.name))
        if resuming:
            # Moving the checkpoint back onto the new slice is a restart.
            job.resume_at_s = now_s + job.rec.restart(0)
            self._build_trainer(job, replicas, restore=True)
        else:
            job.resume_at_s = now_s
            self._build_trainer(job, replicas, restore=False)
            # Initial snapshot before any work, as run_chaos takes one.
            job.rec.save(job.step, 0.0, now_s)
        self._emit(
            "admit", job.name,
            slice=[slc.x0, slc.y0, slc.width, slc.height],
            replicas=replicas, resuming=resuming,
        )
        return True

    # --- the waiting queue ---------------------------------------------------

    def _enqueue(self, job: _Job, tick: int) -> None:
        """``job`` waits for its next admission attempt at ``tick``."""
        job.next_retry_tick = tick
        bisect.insort(self._due.setdefault(tick, []), job, key=_ORDER)

    def _leave_queue(self, job: _Job) -> None:
        """``job`` stops waiting this tick (admitted or rejected)."""
        job.settle_wait(self._waited)
        if job.report.admissions > 0:
            self._served.remove(job)

    def _settle_waits(self, cut: tuple | None = None) -> None:
        """Charge every waiting job's ``queue_wait_ticks`` up to now.

        Waits are charged in bulk when a job leaves the queue; this brings
        the ledgers up to date before anything reads them mid-run.  During
        an admission pass, ``cut`` is the order of the job being decided:
        the jobs after it have not been reached this tick yet.
        """
        for name in self._by_state[PENDING]:
            job = self.jobs[name]
            late = cut is not None and job.order > cut
            job.settle_wait(self._waited - late)

    def _run_admission(self, now_s: float) -> None:
        """Attempt the jobs due this tick, in admission order.

        A waiting job that was served before loses wall time every tick it
        waits: one ``base_step_seconds`` each, charged at its place in the
        admission order, so a mid-pass read sees what a full scan would.
        """
        self._waited = self._tick + 1
        base = self.config.base_step_seconds
        served = self._served.copy()
        charged = 0
        for job in self._due.pop(self._tick, ()):
            while charged < len(served) and served[charged].order <= job.order:
                served[charged].report.total_seconds += base
                charged += 1
            self._attempt(job, now_s)
        for job in served[charged:]:
            job.report.total_seconds += base

    def _attempt(self, job: _Job, now_s: float) -> None:
        """One admission attempt: admit, back off, or reject."""
        if self._try_admit(job, now_s):
            return
        policy = self.config.admission_policy
        report = job.report
        job.attempts += 1
        if job.attempts >= policy.max_attempts:
            self._leave_queue(job)
            job.state = REJECTED
            self._emit("reject", job.name, attempts=job.attempts)
            logger.warning(
                "tick %d: %s rejected after %d admission attempts",
                self._tick, job.name, job.attempts,
            )
            if _telemetry.enabled:
                # The registry holds no cluster_* counters until the run
                # ends, so the bundle carries the ledgers themselves.
                self._settle_waits(cut=job.order)
                _telemetry.flight_recorder.dump(
                    reason=f"tenant_rejected:{job.name}",
                    extra=_TenantLedgers(self.jobs),
                )
            return
        delay_s = policy.delay_after(job.attempts, key=job.retry_key)
        self._enqueue(job, self._tick + max(
            1, math.ceil(delay_s / self.config.base_step_seconds)
        ))
        report.admission_retries += 1
        self._emit(
            "admission_retry", job.name,
            attempt=job.attempts, delay_s=round(delay_s, 6),
            next_tick=job.next_retry_tick,
        )

    # --- elasticity ----------------------------------------------------------

    def _run_elasticity(self, now_s: float) -> None:
        """Regrow running jobs over healed chips; migrate shrunken jobs."""
        for job in self._running:
            if job.intact or now_s < job.resume_at_s:
                continue
            name = job.name
            alive = self.state.alive_in(name)
            if len(alive) > job.report.replicas:
                # Chips inside the slice healed: expand onto them at a
                # checkpoint boundary (save -> rebuild bigger -> restore).
                self._resize(job, len(alive), now_s, kind="regrow")
            elif len(alive) < job.spec.num_chips:
                # Running degraded: a full-size slice freed up elsewhere
                # (a tenant finished, or healing restored another region).
                question = ("migrate", name)
                if self._failed_before(question):
                    continue
                anchor = self.state.find_anchor(
                    job.spec.slice_shape, evictable=frozenset((name,))
                )
                if anchor is None:
                    self._remember_failure(question)
                else:
                    self.state.release(name)
                    slc = self.state.allocate(name, job.spec.slice_shape)
                    assert slc is not None
                    self._resize(
                        job, len(self.state.alive_in(name)), now_s,
                        kind="migrate",
                    )

    def _resize(self, job: _Job, replicas: int, now_s: float, kind: str) -> None:
        """Announced replica-count change at a checkpoint boundary."""
        job.rec.save(job.step, self.config.checkpoint_write_seconds, now_s)
        restore_s = job.rec.transfer_seconds(job.rec.ckpt_bytes)
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
        alive_in = self.state.alive_in
        # Ask each job for its slowdown only while some straggler is active.
        lagging = any(s.active_at(self._tick) for s in self.plan.stragglers)
        for job in self._running.copy():  # completions leave the list
            if now_s < job.resume_at_s:
                continue
            alive = alive_in(job.name)
            report = job.report
            if lagging:
                slowdown = self.plan.slowdown_at(self._tick, alive)
                if slowdown > 1.0:
                    self._blame_stragglers(job, alive, slowdown)
                    job.stall_debt += (slowdown - 1.0) * base
                    if job.stall_debt >= base:
                        # The synchronous step is still in flight: the fleet
                        # waits on its slowest chip and makes no progress.
                        job.stall_debt -= base
                        report.total_seconds += base
                        report.straggler_stall_ticks += 1
                        continue
            if job.rec.trainer is not None:
                x, labels = job.batch_fn(job.step)
                result = job.rec.trainer.step(x, labels)
                del result  # the loss is the job's own business
            report.record_run_step(job.step)
            report.steps_executed += 1
            report.total_seconds += base
            job.step += 1
            self.result.chip_seconds_used += len(alive) * base
            if job.step >= job.spec.target_steps:
                self._complete(job, now_s + base)
            elif self._should_checkpoint(job, now_s + base):
                job.rec.save(
                    job.step, self.config.checkpoint_write_seconds,
                    now_s + base,
                )

    def _complete(self, job: _Job, finish_s: float) -> None:
        report = job.report
        report.useful_seconds = (
            job.spec.target_steps * self.config.base_step_seconds
        )
        report.finish_s = finish_s
        report.completed_tick = self._tick
        if job.rec.trainer is not None:
            report.final_params = job.rec.trainer.params
        self.state.release(job.name)
        job.rec.trainer = None
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
                    if job.rec.trainer is not None:
                        report.final_params = job.rec.trainer.params
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
    build = _trainer_builder(spec, cluster_seed)
    batch_fn = spec.batch_fn_factory(
        derive_subseed(cluster_seed, "batches", spec.name)
    )
    trainer = None
    ckpt = None
    for op in report.timeline:
        kind = op[0]
        if kind == "build":
            trainer = build(op[1])
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
