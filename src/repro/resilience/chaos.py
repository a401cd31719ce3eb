"""Elastic chaos harness: train through an injected fault plan.

The harness drives a trainer step-by-step against a :class:`FaultPlan`,
modelling the recovery loop of a synchronous TPU fleet:

* a checkpoint policy (default: every ``checkpoint_interval`` steps, plus
  an initial snapshot at step 0 before any work) decides when the trainer
  snapshots its full state;
* when the plan kills a chip mid-step, the partial step is wasted, the
  fleet hangs until a **detector** declares the death (an
  :class:`~repro.controlplane.heartbeat.OracleDetector` with the config's
  fixed timeout by default, or a measured-MTTD
  :class:`~repro.controlplane.heartbeat.HeartbeatDetector`), reloads the
  last checkpoint, and — this is the *elastic* part — resumes on the
  **survivors**: the trainer is rebuilt for the smaller replica count and
  the checkpoint is resharded onto it;
* a :class:`~repro.resilience.faults.PreemptionSignal` is an *announced*
  death: the host gets a grace window, and if the checkpoint write fits
  inside it the fleet saves before dying and loses zero steps — no
  detection latency is charged because nothing had to be detected;
* an injected :class:`~repro.resilience.faults.BitFlipFault` corrupts one
  replica's parameter view silently; only a
  :class:`~repro.controlplane.guard.ConsistencyGuard` catches it, either
  resyncing the minority replica from the majority or — when the vote is
  ambiguous — rewinding the whole fleet to the last checkpoint;
* stragglers inflate the modeled step time (synchronous SPMD runs at the
  speed of the slowest chip) without changing the math.

Because a restore replays from the last checkpoint with the same data
order, the final parameters are **bit-identical** to an uninterrupted run
on the surviving mesh shape restored from the same snapshot — the chaos
tests pin this.  The same holds through SDC recovery: flips are transient
(consumed once injected), so both the resync and the rewind path converge
back onto the clean trajectory.

Goodput here is the paper-style availability ratio: the time an ideal
fault-free run would need divided by the modeled wall time actually
spent (re-executed steps, detection latency, restore transfers and
straggler inflation all count against it).  During a detection blind
window no step completes — the fleet is hung in a collective — so a
larger MTTD lowers goodput even in accounting-only mode.

The same loop runs without a trainer (``trainer_factory=None``) as a pure
timeline model, which is what lets :mod:`repro.experiments.availability`
sweep thousands of chips without doing any numerics.
"""

from __future__ import annotations

import logging
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry as _telemetry
from repro.resilience.faults import (
    BitFlipFault,
    Device,
    DeviceLostError,
    FaultPlan,
    host_map,
)

if TYPE_CHECKING:  # runtime imports are deferred to avoid a package cycle
    from repro.controlplane.checkpointing import CheckpointPolicy
    from repro.controlplane.guard import ConsistencyGuard, DesyncEvent
    from repro.core.trainer import TrainerConfig

logger = logging.getLogger("repro.resilience")

#: ``trainer_factory(num_replicas)`` must return an *initialized* trainer
#: exposing ``step``/``save_checkpoint``/``restore_checkpoint``.
TrainerFactory = Callable[[int], object]

#: ``batch_fn(step)`` must return the deterministic global batch of a step
#: — the same data order regardless of how many replicas split it.
BatchFn = Callable[[int], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ChaosConfig:
    """Knobs of the recovery loop and its timeline model.

    ``mesh_shape`` is the logical ``(x, y)`` chip grid the fault plan
    targets; replicas map x-major onto it and ``chips_per_host`` groups
    them into preemption failure domains via
    :func:`~repro.resilience.faults.host_map`.  ``base_step_seconds`` is
    the modeled fault-free step time; restore cost is the detection
    latency plus moving the checkpoint back over
    ``restore_bandwidth_bytes_per_s`` (checkpoint *writes* are treated as
    asynchronous and free by default, matching the usual snapshot-to-host
    overlap; set ``checkpoint_write_seconds`` to charge a non-overlapped
    write cost per snapshot, which is what gives checkpoint-interval
    policies a real overhead/rework trade-off.  The synchronous
    best-effort save inside a preemption grace window is always charged).  ``detection_timeout_s`` seeds the default
    oracle detector; pass ``detector=`` to :func:`run_chaos` to replace
    it.
    """

    mesh_shape: tuple[int, int]
    target_steps: int
    checkpoint_interval: int = 5
    base_step_seconds: float = 1.0
    detection_timeout_s: float = 0.5
    restore_bandwidth_bytes_per_s: float = 1e9
    chips_per_host: int = 8
    checkpoint_write_seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.target_steps < 0:
            raise ValueError("target_steps must be >= 0")
        if self.checkpoint_interval < 1:
            raise ValueError("checkpoint_interval must be >= 1")
        if self.base_step_seconds <= 0:
            raise ValueError("base_step_seconds must be > 0")
        if self.chips_per_host < 1:
            raise ValueError("chips_per_host must be >= 1")
        if self.checkpoint_write_seconds < 0:
            raise ValueError("checkpoint_write_seconds must be >= 0")


@dataclass
class GoodputAccounting:
    """The structured failure/recovery accounting schema of one workload.

    Every consumer of goodput numbers — :func:`run_chaos` (both real and
    accounting-only modes), the per-tenant
    :class:`~repro.cluster.jobs.JobReport` of the cluster scheduler, and
    the :mod:`repro.experiments.availability` sweep — reads this one
    dataclass rather than ad-hoc dicts, so a field added here propagates
    to every table with the same meaning.
    """

    steps_executed: int = 0
    restarts: int = 0
    lost_steps: int = 0
    checkpoints_taken: int = 0
    restart_seconds: float = 0.0
    total_seconds: float = 0.0
    useful_seconds: float = 0.0
    detections: int = 0
    detection_seconds: float = 0.0
    preemptions: int = 0

    @property
    def goodput(self) -> float:
        """Fault-free seconds of useful work per modeled wall-clock second."""
        if self.total_seconds <= 0.0:
            return 1.0
        return self.useful_seconds / self.total_seconds

    @property
    def mttr_seconds(self) -> float:
        """Mean time to recover: average restart latency over all restarts."""
        if self.restarts == 0:
            return 0.0
        return self.restart_seconds / self.restarts

    @property
    def mttd_seconds(self) -> float:
        """Mean time to detect: average detection latency over declared deaths."""
        if self.detections == 0:
            return 0.0
        return self.detection_seconds / self.detections

    def accounting_dict(self) -> dict[str, float]:
        """The stable, JSON-ready goodput schema (fields + derived rates)."""
        return {
            "steps_executed": self.steps_executed,
            "restarts": self.restarts,
            "lost_steps": self.lost_steps,
            "checkpoints_taken": self.checkpoints_taken,
            "restart_seconds": self.restart_seconds,
            "total_seconds": self.total_seconds,
            "useful_seconds": self.useful_seconds,
            "detections": self.detections,
            "detection_seconds": self.detection_seconds,
            "preemptions": self.preemptions,
            "goodput": self.goodput,
            "mttr_seconds": self.mttr_seconds,
            "mttd_seconds": self.mttd_seconds,
        }


@dataclass
class ChaosReport(GoodputAccounting):
    """Outcome of one chaos run: goodput accounting plus the final state.

    Both modes of :func:`run_chaos` — real numerics and accounting-only —
    return this same dataclass (never a bare dict), extending the shared
    :class:`GoodputAccounting` schema with the chaos-specific state.
    """

    device_failures: int = 0
    survivors: int = 0
    preempt_checkpoints_saved: int = 0
    guard_checks: int = 0
    desync_events: list["DesyncEvent"] = field(default_factory=list)
    losses: list[float] = field(default_factory=list)
    final_params: dict[str, np.ndarray] | None = None
    #: Wall seconds actually measured per step phase, summed over every
    #: executed step (populated when the trainer returns ``StepResult``).
    measured_phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Fused collective payload actually handed to the wire, summed.
    measured_bytes_moved: float = 0.0

    @property
    def desyncs_caught(self) -> int:
        return len(self.desync_events)


def _params_nbytes(params: dict[str, np.ndarray]) -> int:
    return sum(int(np.asarray(a).nbytes) for a in params.values())


def _injected_step(flips: list[BitFlipFault], fallback: int) -> int:
    return min((f.at_step for f in flips), default=fallback)


def run_chaos(
    plan: FaultPlan,
    config: ChaosConfig,
    *,
    trainer_factory: TrainerFactory | None = None,
    trainer_config: "TrainerConfig | None" = None,
    batch_fn: BatchFn | None = None,
    state_bytes: int = 0,
    detector: object | None = None,
    guard: "ConsistencyGuard | None" = None,
    checkpoint_policy: "CheckpointPolicy | None" = None,
) -> ChaosReport:
    """Train ``config.target_steps`` steps through the plan's failures.

    With a ``trainer_factory`` the run does real numerics: the factory is
    called with the current survivor count whenever the fleet (re)forms,
    and every restore reshards the last checkpoint onto it.  The global
    batch from ``batch_fn`` must stay divisible by every survivor count
    the plan can produce.

    ``trainer_config`` is the declarative alternative: a
    :class:`~repro.core.trainer.TrainerConfig` whose ``mesh_shape`` is
    re-derived as ``(survivors, 1)`` on every (re)formation and built via
    :func:`~repro.core.trainer.make_trainer` — initialized with the
    config's ``seed`` (0 if unset, since the harness needs a live
    trainer).  Mutually exclusive with ``trainer_factory``; still needs
    ``batch_fn``.

    Without one the loop is pure goodput accounting over ``state_bytes``
    of checkpoint payload — no arrays move, so it scales to pod-size
    sweeps.  Desync detection still runs on the timeline (a corrupted
    replica is tracked as an overlay, and a guard check flags it), so
    SDC accounting works at pod scale too.

    ``detector`` is anything with ``detection_latency(fault_time) ->
    seconds`` (see :mod:`repro.controlplane.heartbeat`); ``None`` keeps
    the legacy oracle with ``config.detection_timeout_s``.  The latency
    is charged per chip-failure event as a fleet-wide hang — the blind
    window between the death and the declaration, during which no step
    completes.  ``checkpoint_policy`` defaults to the legacy
    ``StepInterval(config.checkpoint_interval)``.

    Raises :class:`DeviceLostError` if the plan exterminates every chip.
    """
    from repro.controlplane.checkpointing import StepInterval
    from repro.controlplane.guard import DesyncEvent, apply_bit_flips
    from repro.controlplane.heartbeat import OracleDetector

    if trainer_config is not None:
        if trainer_factory is not None:
            raise ValueError(
                "pass either trainer_factory or trainer_config, not both"
            )
        from repro.core.trainer import make_trainer

        trainer_config.require_checkpointing()
        base_config = trainer_config
        if base_config.seed is None:
            base_config = base_config.with_(seed=0)

        def trainer_factory(num_replicas: int) -> object:
            return make_trainer(
                base_config.with_(mesh_shape=(num_replicas, 1))
            )

    if (trainer_factory is None) != (batch_fn is None):
        raise ValueError("trainer_factory and batch_fn go together")
    if detector is None:
        detector = OracleDetector(config.detection_timeout_s)
    policy = checkpoint_policy or StepInterval(config.checkpoint_interval)
    x_size, y_size = config.mesh_shape
    # An insertion-ordered set: x-major iteration, O(1) membership and removal.
    alive = dict.fromkeys((x, y) for x in range(x_size) for y in range(y_size))
    hosts = host_map(config.mesh_shape, config.chips_per_host)
    report = ChaosReport()

    trainer = trainer_factory(len(alive)) if trainer_factory else None
    ckpt = None
    ckpt_bytes = state_bytes
    step = ckpt_step = 0
    ckpt_time = 0.0

    def checkpoint(write_seconds: float) -> None:
        """Snapshot at the current step, charging ``write_seconds`` for it."""
        nonlocal ckpt, ckpt_bytes, ckpt_step, ckpt_time
        if trainer is not None:
            ckpt = trainer.save_checkpoint()
            ckpt_bytes = ckpt.nbytes
        report.total_seconds += write_seconds
        ckpt_step = step
        ckpt_time = report.total_seconds
        report.checkpoints_taken += 1

    def restart(lost: int, restart_s: float, *, reform: bool) -> None:
        """Charge one restart and resume from the last checkpoint; ``reform``
        first rebuilds the trainer for a fleet that shrank."""
        nonlocal trainer, step
        report.lost_steps += lost
        report.restarts += 1
        report.restart_seconds += restart_s
        report.total_seconds += restart_s
        if _telemetry.enabled:
            m = _telemetry.metrics
            m.counter("resilience_lost_steps").inc(lost)
            m.counter("resilience_restarts").inc()
            m.counter("resilience_restart_seconds").inc(restart_s)
            m.gauge("resilience_mttr_seconds").set(report.mttr_seconds)
        if trainer is not None:
            if reform:
                with _telemetry.tracer.span(
                    "chaos_restart", category="resilience", actor="chaos"
                ):
                    trainer = trainer_factory(len(alive))
                    trainer.restore_checkpoint(ckpt)
            else:
                trainer.restore_checkpoint(ckpt)
        step = ckpt_step

    def require_survivors(lost: list[Device], cause: str, origin: str) -> None:
        """A plan that leaves no chip alive ends the run, with a postmortem."""
        if not alive:
            err = DeviceLostError(
                lost, f"{cause} every chip; nothing left to restore onto"
            )
            _telemetry.on_terminal_failure(err, origin=origin, step=step)
            raise err

    checkpoint(0.0)  # the initial snapshot, before any work

    # Silent-corruption bookkeeping: a flipped replica's divergence from the
    # shared trajectory, carried as a sparse overlay of pending flips.  Flips
    # are transient — ``consumed`` stops a rewind from re-injecting them.
    overlays: dict[Device, list[BitFlipFault]] = {}
    consumed: set[BitFlipFault] = set()

    while step < config.target_steps:
        # --- announced deaths: preemption signals with a grace window -------
        live_signals = []
        for sig in plan.preemptions_at_step(step):
            victims = [c for c in hosts.get(sig.host, ()) if c in alive]
            if victims:
                live_signals.append((sig, victims))
        if live_signals:
            save_s = ckpt_bytes / config.restore_bandwidth_bytes_per_s
            grace_s = min(sig.grace_s for sig, _ in live_signals)
            saved_in_grace = save_s <= grace_s
            if saved_in_grace:
                # Best-effort save fits the grace window: zero lost steps.
                checkpoint(save_s)
                report.preempt_checkpoints_saved += 1
            for sig, victims in live_signals:
                for device in victims:
                    del alive[device]
                    overlays.pop(device, None)
            report.preemptions += len(live_signals)
            _telemetry.flight_recorder.record(
                "chaos", "preemption",
                step=step,
                hosts=[sig.host for sig, _ in live_signals],
                saved_in_grace=saved_in_grace,
                survivors=len(alive),
            )
            require_survivors(
                [c for _, cs in live_signals for c in cs],
                "preemption took", "chaos.preemption",
            )
            # Announced death: no detection latency, only the restore move.
            restart_s = ckpt_bytes / config.restore_bandwidth_bytes_per_s
            lost = step - ckpt_step
            if _telemetry.enabled:
                m = _telemetry.metrics
                m.counter("controlplane_preemptions").inc(len(live_signals))
                if saved_in_grace:
                    m.counter("controlplane_preempt_checkpoints").inc()
            logger.warning(
                "preemption at step %d (hosts %s): %s, %d survivors "
                "(%d steps lost, %.3fs restart)",
                step, [sig.host for sig, _ in live_signals],
                "checkpoint saved in grace window"
                if saved_in_grace else "grace window too short to save",
                len(alive), lost, restart_s,
            )
            restart(lost, restart_s, reform=True)
            continue

        # --- unannounced deaths: chip failures mid-step ---------------------
        hits = [
            device
            for device in plan.chip_failures_at_step(step)
            if device in alive
        ]
        if hits:
            for device in hits:
                del alive[device]
                overlays.pop(device, None)
            report.device_failures += len(hits)
            if _telemetry.enabled:
                _telemetry.metrics.counter("resilience_device_failures").inc(
                    len(hits)
                )
            _telemetry.flight_recorder.record(
                "chaos", "chip_failure",
                step=step,
                devices=[list(d) for d in hits],
                survivors=len(alive),
            )
            require_survivors(hits, "fault plan killed", "chaos.chip_failure")
            # The step the failure interrupted is wasted, along with every
            # step completed since the last checkpoint (they get redone).
            report.total_seconds += (
                config.base_step_seconds * plan.slowdown_at(step, alive)
            )
            lost = (step - ckpt_step) + 1
            # The fleet hangs in a dead collective until the detector
            # declares the death; only then does the restore transfer start.
            latency = detector.detection_latency(report.total_seconds)
            report.detections += 1
            report.detection_seconds += latency
            restart_s = (
                latency + ckpt_bytes / config.restore_bandwidth_bytes_per_s
            )
            if _telemetry.enabled:
                m = _telemetry.metrics
                m.counter("controlplane_detections").inc()
                m.counter("controlplane_detection_seconds").inc(latency)
                m.histogram("controlplane_detection_latency_seconds").observe(
                    latency
                )
            _telemetry.flight_recorder.record(
                "chaos", "restart",
                step=step, rewound_to=ckpt_step, lost_steps=lost,
                detection_s=latency, restart_s=restart_s,
            )
            logger.warning(
                "chip failure at step %d (%s): detected after %.3fs, "
                "rewinding to step %d on %d survivors (%d steps lost, "
                "%.3fs restart)",
                step, hits, latency, ckpt_step, len(alive), lost, restart_s,
            )
            restart(lost, restart_s, reform=True)
            continue

        # --- silent corruption: bit flips land without any loud signal ------
        for flip in plan.bit_flips_at_step(step):
            if flip in consumed:
                continue
            consumed.add(flip)
            if flip.device in alive:
                overlays.setdefault(flip.device, []).append(flip)
                if _telemetry.enabled:
                    _telemetry.metrics.counter(
                        "controlplane_bit_flips_injected"
                    ).inc()

        slowdown = plan.slowdown_at(step, alive)
        if trainer is not None:
            assert batch_fn is not None
            x, labels = batch_fn(step)
            res = trainer.step(x, labels)
            report.losses.append(float(res))
            phases = getattr(res, "phase_seconds", None)
            if phases:
                for phase, seconds in phases.items():
                    report.measured_phase_seconds[phase] = (
                        report.measured_phase_seconds.get(phase, 0.0) + seconds
                    )
            report.measured_bytes_moved += getattr(res, "bytes_moved", 0.0)
        report.total_seconds += config.base_step_seconds * slowdown
        report.steps_executed += 1
        if trainer is None:
            # Accounting mode has no trainer StepResult to mirror; keep the
            # flight timeline alive with the modeled step boundary instead.
            _telemetry.flight_recorder.record(
                "step", "modeled_step", step_index=step, slowdown=slowdown
            )
            _telemetry.flight_recorder.record_counter_deltas()
        step += 1

        # --- cross-replica hash check ---------------------------------------
        if guard is not None and guard.due(step):
            report.total_seconds += guard.hash_seconds
            report.guard_checks += 1
            if trainer is not None:
                clean = trainer.params
                views = {
                    d: apply_bit_flips(clean, overlays[d])
                    if d in overlays else clean
                    for d in alive
                }
                desynced, ambiguous = guard.check_replicas(views, step)
                resync_bytes = _params_nbytes(clean)
            else:
                # Accounting mode: no arrays, but the overlay bookkeeping
                # still says which replicas would hash differently.
                hashes = {
                    d: f"flip:{d}" if d in overlays else "clean" for d in alive
                }
                desynced, ambiguous = guard.find_desynced(hashes)
                resync_bytes = state_bytes
            if desynced and not ambiguous:
                # Quarantine the minority and resync it from the majority.
                resync_s = (
                    len(desynced)
                    * resync_bytes
                    / config.restore_bandwidth_bytes_per_s
                )
                report.total_seconds += resync_s
                for device in desynced:
                    flips = overlays.pop(device, [])
                    report.desync_events.append(
                        DesyncEvent(
                            device=device,
                            injected_step=_injected_step(flips, step),
                            detected_step=step,
                            recovery="resync",
                        )
                    )
            elif desynced and ambiguous:
                # No trustworthy donor: rewind everyone to the checkpoint.
                # Events and the flight record carry the *detection* step, so
                # they are built before restart() resets ``step``.
                lost = step - ckpt_step
                for device, flips in sorted(overlays.items()):
                    report.desync_events.append(
                        DesyncEvent(
                            device=device,
                            injected_step=_injected_step(flips, step),
                            detected_step=step,
                            recovery="rewind",
                        )
                    )
                overlays.clear()
                logger.warning(
                    "ambiguous desync at step %d: rewinding to step %d "
                    "(%d steps lost)",
                    step, ckpt_step, lost,
                )
                # The fleet survives, but it just rewound on corrupted state
                # with no trustworthy donor — exactly the moment an operator
                # wants the preceding timeline, so dump a postmortem bundle.
                _telemetry.flight_recorder.record(
                    "chaos", "ambiguous_rewind",
                    step=step, rewound_to=ckpt_step, lost_steps=lost,
                )
                restart(
                    lost,
                    ckpt_bytes / config.restore_bandwidth_bytes_per_s,
                    reform=False,
                )
                # Dumped after the charge so the bundle counts this restart.
                if _telemetry.enabled:
                    _telemetry.flight_recorder.dump(reason="consistency_rewind")
                continue

        if step < config.target_steps and policy.should_checkpoint(
            step=step,
            now_s=report.total_seconds,
            last_checkpoint_step=ckpt_step,
            last_checkpoint_time_s=ckpt_time,
        ):
            # Non-overlapped part of the snapshot write, if the model has one
            # (zero by default: writes stream out asynchronously).
            checkpoint(config.checkpoint_write_seconds)

    report.useful_seconds = config.target_steps * config.base_step_seconds
    report.survivors = len(alive)
    if trainer is not None:
        report.final_params = trainer.params
    logger.info(
        "chaos run done: %d/%d steps useful, %d failures, %d preemptions, "
        "%d desyncs, goodput %.3f",
        config.target_steps, report.steps_executed, report.device_failures,
        report.preemptions, report.desyncs_caught, report.goodput,
    )
    return report
