"""Goodput vs. failure rate x chip count (availability sweep).

The paper scales synchronous training to 4096 chips; at that size the
fleet-wide failure rate is what decides whether the speedup survives
contact with production.  This driver sweeps a per-chip-per-step failure
probability against pod sizes and reports the modeled goodput of the
checkpoint/restore recovery loop in :mod:`repro.resilience.chaos` — the
accounting-only mode, so the 4096-chip points cost no numerics.

A second, small table runs the *real* elastic harness (actual WUS
training through injected failures, restored onto the survivors) to show
the accounting rows are backed by executable recovery, not just a
timeline formula.

Three control-plane tables ride on top (PR 4):

* :func:`heartbeat_sweep` — MTTD vs. heartbeat interval: replacing the
  oracle detector with a :class:`HeartbeatDetector` makes detection
  latency a *measured* cost, and the sweep shows goodput degrading as
  the heartbeat gets lazier;
* :func:`checkpoint_sweep` — checkpoint interval vs. goodput with a
  non-overlapped write cost, including the Young/Daly
  :class:`RiskAdaptive` row that lands near the sweep's optimum;
* :func:`controlplane_scenario` — the Section 2 failure-domain contrast:
  the same coordinator death kills a single-client job outright
  (nobody watches the watcher) while the multi-client peer ring detects
  it and re-forms, with Table 2-shaped init/re-init columns.

Seeds are fixed: every run of this experiment reproduces the same fault
draws and therefore the same tables.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import telemetry as _telemetry
from repro.controlplane import (
    HeartbeatDetector,
    HostGroup,
    JobKilledError,
    MultiClientGroup,
    RiskAdaptive,
    SingleClientCoordinator,
)
from repro.core.trainer import TrainerConfig
from repro.experiments.fidelity import Claim
from repro.experiments.report import Table
from repro.frameworks.base import GraphProfile
from repro.models.mlp import MLP
from repro.optim.adam import Adam
from repro.resilience.chaos import ChaosConfig, run_chaos, trainer_for
from repro.resilience.faults import FaultPlan

#: Checkpoint payload of the modeled sweep: ~400M params in f32 plus two
#: f64 Adam slots each — a BERT-scale restore transfer.
_STATE_BYTES = int(400e6 * (4 + 2 * 8))

#: Restore path: reading the snapshot back over ~10 GB/s of host network.
_RESTORE_BW = 10e9

_TARGET_STEPS = 200
_CHECKPOINT_INTERVAL = 20
_BASE_STEP_SECONDS = 1.0


def _mesh_for(chips: int) -> tuple[int, int]:
    side = int(np.sqrt(chips))
    if side * side != chips:
        raise ValueError(f"chip count {chips} is not a square")
    return (side, side)


def _postmortem_cell(dumps_before: int) -> str:
    """Time-to-postmortem for one run, or ``-`` when nothing dumped.

    The process flight recorder is attached to every chaos run by default;
    a run that survives its fault plan produces no bundle, while a
    consistency rewind or fleet extermination dumps one and records the
    wall seconds the dump took — the operator's time-to-first-evidence.
    """
    rec = _telemetry.flight_recorder
    if rec.dump_count == dumps_before:
        return "-"
    return f"{rec.last_postmortem_seconds * 1e3:.1f}"


def sweep(
    chip_counts: tuple[int, ...] = (256, 1024, 4096),
    failure_rates: tuple[float, ...] = (0.0, 1e-6, 1e-5, 1e-4),
    seed: int = 2021,
) -> Table:
    """Goodput table over chips x per-chip-per-step failure probability."""
    table = Table(
        "Availability: goodput vs. failure rate and pod size "
        f"({_TARGET_STEPS} steps, checkpoint every {_CHECKPOINT_INTERVAL})",
        ["Chips", "Chip fail rate", "Failures", "Restarts", "Lost steps",
         "MTTR (s)", "Goodput", "Postmortem (ms)"],
    )
    for chips in chip_counts:
        mesh_shape = _mesh_for(chips)
        config = ChaosConfig(
            mesh_shape=mesh_shape,
            target_steps=_TARGET_STEPS,
            checkpoint_interval=_CHECKPOINT_INTERVAL,
            base_step_seconds=_BASE_STEP_SECONDS,
            detection_timeout_s=10.0,
            restore_bandwidth_bytes_per_s=_RESTORE_BW,
        )
        for rate in failure_rates:
            expected = rate * chips * _TARGET_STEPS
            plan = FaultPlan.sample(
                seed + chips,  # same draws for every rate=0-adjacent column
                mesh_shape,
                _TARGET_STEPS,
                expected_chip_failures=expected,
                step_time_s=_BASE_STEP_SECONDS,
            )
            dumps_before = _telemetry.flight_recorder.dump_count
            report = run_chaos(plan, config, state_bytes=_STATE_BYTES)
            # Consume the GoodputAccounting schema shared with the cluster
            # scheduler's JobReport — one accounting contract for both.
            acc = report.accounting_dict()
            table.add_row(
                chips,
                f"{rate:.0e}" if rate else "0",
                report.device_failures,
                int(acc["restarts"]),
                int(acc["lost_steps"]),
                f"{acc['mttr_seconds']:.1f}",
                f"{acc['goodput']:.3f}",
                _postmortem_cell(dumps_before),
            )
    return table


def chaos_demo(seed: int = 7) -> Table:
    """Executable backing for the sweep: real WUS training through faults.

    Trains a small MLP with weight-update sharding on a 2x2 replica mesh
    through a sampled fault plan; every restore reshards the checkpoint
    onto the surviving replicas.  The final column checks determinism:
    the end params are a pure function of the fault plan (and, with no
    failures, bit-identical to a plain uninterrupted run).
    """

    trainer_config = TrainerConfig(
        model=MLP([8, 16, 4]),
        optimizer=Adam(learning_rate=0.01),
        strategy="wus",
        seed=seed,
    )

    # The same trainer run_chaos builds internally from trainer_config; the
    # replay check needs its own handle to re-execute from scratch.
    factory = functools.partial(trainer_for, trainer_config)

    def batch(step: int):
        rng = np.random.default_rng(10_000 + step)
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    config = ChaosConfig(
        mesh_shape=(2, 2), target_steps=24, checkpoint_interval=6,
        base_step_seconds=1.0, detection_timeout_s=0.5,
    )
    table = Table(
        "Chaos run: WUS trainer through sampled chip failures (2x2 mesh)",
        ["Expected failures", "Failures", "Restarts", "Lost steps",
         "Survivors", "Goodput", "Deterministic replay"],
    )
    for expected in (0.0, 1.0, 2.0):
        plan = FaultPlan.sample(
            seed, (2, 2), config.target_steps,
            expected_chip_failures=expected,
        )
        report = run_chaos(
            plan, config, trainer_config=trainer_config, batch_fn=batch
        )
        table.add_row(
            f"{expected:.0f}",
            report.device_failures,
            report.restarts,
            report.lost_steps,
            report.survivors,
            f"{report.goodput:.3f}",
            "yes" if _replays_identically(report, plan, config, factory, batch)
            else "NO",
        )
    return table


def _replays_identically(report, plan, config, factory, batch) -> bool:
    """Check the elastic run is a deterministic function of its fault plan.

    With no failures drawn, the reference is a plain uninterrupted run of
    the full mesh — the chaos run must match it bit-for-bit (checkpoints
    must be pure snapshots).  With failures, an independent re-execution
    of the harness must land on exactly the same floats.  (The stronger
    single-failure claim — equality with a clean run on the surviving
    shape resumed from the same checkpoint — is pinned in the tests.)
    """
    if report.device_failures == 0:
        x_size, y_size = config.mesh_shape
        reference = factory(x_size * y_size)
        for step in range(config.target_steps):
            reference.step(*batch(step))
        reference_params = reference.params
    else:
        twin = run_chaos(plan, config, trainer_factory=factory, batch_fn=batch)
        reference_params = twin.final_params
    return all(
        np.array_equal(report.final_params[name], reference_params[name])
        for name in reference_params
    )


def postmortem_demo(seed: int = 7) -> Table:
    """Terminal failure with the flight recorder attached (always-on).

    A seed-deterministic fault plan exterminates the whole 2x2 fleet
    mid-run; the chaos harness raises
    :class:`~repro.resilience.faults.DeviceLostError` and the process
    flight recorder dumps a postmortem bundle on the way out.  The table
    shows what an operator gets and how fast: the bundle's record count,
    how many of those are spans from the preceding steps, and the wall
    time from the fatal raise to a complete bundle.
    """
    from repro.resilience.faults import ChipFailure, DeviceLostError

    trainer_config = TrainerConfig(
        model=MLP([8, 16, 4]),
        optimizer=Adam(learning_rate=0.01),
        strategy="wus",
        seed=seed,
    )

    def batch(step: int):
        rng = np.random.default_rng(20_000 + step)
        return rng.standard_normal((12, 8)), rng.integers(0, 4, size=12)

    config = ChaosConfig(
        mesh_shape=(2, 2), target_steps=24, checkpoint_interval=6,
        base_step_seconds=1.0, detection_timeout_s=0.5,
    )
    kill_step = 12
    plan = FaultPlan(
        seed=seed,
        chip_failures=tuple(
            ChipFailure(device=(x, y), at_step=kill_step)
            for x in range(2) for y in range(2)
        ),
    )
    table = Table(
        "Postmortem: flight-recorder bundle on fleet extermination "
        f"(2x2 mesh, all chips die at step {kill_step})",
        ["Outcome", "Steps before death", "Bundle records", "Spans",
         "Fault events", "Time-to-postmortem (ms)"],
    )
    rec = _telemetry.flight_recorder
    try:
        run_chaos(
            plan, config, trainer_config=trainer_config, batch_fn=batch
        )
        outcome = "survived (unexpected)"
    except DeviceLostError:
        outcome = "DeviceLostError"
    bundle = rec.last_postmortem or {"records": []}
    records = bundle.get("records", [])
    table.add_row(
        outcome,
        kill_step,
        len(records),
        sum(1 for r in records if r["kind"] == "span"),
        sum(1 for r in records if r["kind"] == "fault"),
        f"{rec.last_postmortem_seconds * 1e3:.1f}",
    )
    return table


def _fault_plan_for(chips: int, seed: int, rate: float = 1e-5) -> FaultPlan:
    """The shared, seed-pinned plan the control-plane sweeps run against."""
    mesh_shape = _mesh_for(chips)
    return FaultPlan.sample(
        seed + chips,
        mesh_shape,
        _TARGET_STEPS,
        expected_chip_failures=rate * chips * _TARGET_STEPS,
        step_time_s=_BASE_STEP_SECONDS,
    )


def heartbeat_sweep(chips: int = 1024, seed: int = 2021) -> Table:
    """MTTD vs. heartbeat interval: detection latency priced into goodput.

    The oracle row is PR 3's behavior (a fixed 10 s declaration); the
    heartbeat rows replay the *same* fault plan with measured detection —
    suspicion builds over ``2`` missed beats, so MTTD grows with the
    interval and goodput falls with it.
    """
    mesh_shape = _mesh_for(chips)
    config = ChaosConfig(
        mesh_shape=mesh_shape,
        target_steps=_TARGET_STEPS,
        checkpoint_interval=_CHECKPOINT_INTERVAL,
        base_step_seconds=_BASE_STEP_SECONDS,
        detection_timeout_s=10.0,
        restore_bandwidth_bytes_per_s=_RESTORE_BW,
    )
    plan = _fault_plan_for(chips, seed)
    table = Table(
        f"Control plane: MTTD vs. heartbeat interval ({chips} chips, "
        "suspicion threshold 2)",
        ["Detector", "Interval (s)", "Timeout (s)", "MTTD (s)",
         "Restarts", "Lost steps", "Goodput"],
    )
    oracle = run_chaos(plan, config, state_bytes=_STATE_BYTES)
    table.add_row(
        "oracle", "n/a", "10.0", f"{oracle.mttd_seconds:.2f}",
        oracle.restarts, oracle.lost_steps, f"{oracle.goodput:.3f}",
    )
    for interval in (0.5, 1.0, 2.0, 5.0, 10.0, 30.0):
        detector = HeartbeatDetector(
            interval_s=interval, timeout_s=interval / 2, suspicion_threshold=2
        )
        report = run_chaos(
            plan, config, state_bytes=_STATE_BYTES, detector=detector
        )
        table.add_row(
            "heartbeat", f"{interval:g}", f"{interval / 2:g}",
            f"{report.mttd_seconds:.2f}",
            report.restarts, report.lost_steps, f"{report.goodput:.3f}",
        )
    return table


def checkpoint_sweep(chips: int = 1024, seed: int = 2021) -> Table:
    """Checkpoint interval vs. goodput, with the Young/Daly row.

    A non-overlapped write cost (the restore transfer paid forward) makes
    the trade-off real: checkpoint every few steps and the writes eat
    goodput, checkpoint rarely and every failure rewinds a long way.  The
    risk-adaptive policy derives its interval from the plan's own hazard
    rate and should land near the sweep's optimum.
    """
    mesh_shape = _mesh_for(chips)
    plan = _fault_plan_for(chips, seed)
    write_s = _STATE_BYTES / _RESTORE_BW
    table = Table(
        f"Control plane: checkpoint interval vs. goodput ({chips} chips, "
        f"{write_s:.1f}s non-overlapped write)",
        ["Policy", "Interval", "Checkpoints", "Restarts", "Lost steps",
         "Goodput"],
    )

    def config_with(every_steps: int) -> ChaosConfig:
        return ChaosConfig(
            mesh_shape=mesh_shape,
            target_steps=_TARGET_STEPS,
            checkpoint_interval=every_steps,
            base_step_seconds=_BASE_STEP_SECONDS,
            detection_timeout_s=10.0,
            restore_bandwidth_bytes_per_s=_RESTORE_BW,
            checkpoint_write_seconds=write_s,
        )

    for every in (2, 5, 10, 20, 50, 100):
        report = run_chaos(plan, config_with(every), state_bytes=_STATE_BYTES)
        table.add_row(
            "step-interval", f"{every} steps", report.checkpoints_taken,
            report.restarts, report.lost_steps, f"{report.goodput:.3f}",
        )
    risk = RiskAdaptive.from_plan(
        plan,
        horizon_s=_TARGET_STEPS * _BASE_STEP_SECONDS,
        state_bytes=_STATE_BYTES,
        bandwidth_bytes_per_s=_RESTORE_BW,
    )
    report = run_chaos(
        plan, config_with(_CHECKPOINT_INTERVAL), state_bytes=_STATE_BYTES,
        checkpoint_policy=risk,
    )
    interval = (
        f"{risk.interval_s:.0f} s" if np.isfinite(risk.interval_s) else "inf"
    )
    table.add_row(
        "risk-adaptive (Young/Daly)", interval, report.checkpoints_taken,
        report.restarts, report.lost_steps, f"{report.goodput:.3f}",
    )
    return table


def controlplane_scenario(
    chips: int = 256, chips_per_host: int = 8, death_time_s: float = 5.0
) -> Table:
    """Coordinator death under both Section 2 control planes.

    The same scenario — host 0 dies mid-run — plays out twice: the
    single-client coordinator is an unobserved single point of failure
    (its own heartbeat protocol produces *no* detection, and the job is
    killed), while the multi-client peer ring detects the death from a
    survivor's lease and re-forms at the framework's (cheap) re-init
    cost.  Init columns are the Table 2 shapes: linear-in-workers vs.
    ~constant.
    """
    group = HostGroup(_mesh_for(chips), chips_per_host=chips_per_host)
    detector = HeartbeatDetector(
        interval_s=1.0, timeout_s=0.5, suspicion_threshold=2
    )
    profiles = {
        "tf": GraphProfile("bert", 250.0, 1.38),
        "jax": GraphProfile("bert", 96.0, 0.0),
    }
    table = Table(
        f"Control plane: host 0 dies at t={death_time_s:g}s "
        f"({group.num_hosts} hosts, heartbeat 1s/0.5s, threshold 2)",
        ["Topology", "Hosts", "Init (s)", "Outcome", "Detected by",
         "MTTD (s)", "Re-init (s)"],
    )
    for topology in (
        SingleClientCoordinator(group),
        MultiClientGroup(group),
    ):
        profile = profiles[topology.framework.name]
        detections = detector.simulate(topology, {0: death_time_s})
        try:
            topology.check_host_failure(0)
            outcome = "survivors re-form"
        except JobKilledError:
            outcome = "JOB KILLED (coordinator SPOF)"
        detection = detections[0] if detections else None
        table.add_row(
            type(topology).__name__,
            group.num_hosts,
            f"{topology.init_time(profile):.0f}",
            outcome,
            f"host {detection.by}" if detection else "nobody",
            f"{detection.latency:.2f}" if detection else "n/a",
            f"{topology.reinit_time(group.num_hosts - 1, profile):.0f}"
            if detection else "n/a",
        )
    return table


def run() -> list[Table]:
    return [
        sweep(),
        chaos_demo(),
        postmortem_demo(),
        heartbeat_sweep(),
        checkpoint_sweep(),
        controlplane_scenario(),
    ]


def claims(tables: list[Table]) -> list[Claim]:
    """At 256 chips: no failures, goodput 1; at 1e-4, failures and 0 < goodput < 1."""
    rows = list(zip(tables[0].column("Chips"), tables[0].column("Chip fail rate")))
    failures = dict(zip(rows, tables[0].column("Failures")))
    goodput = dict(zip(rows, map(float, tables[0].column("Goodput"))))
    clean, faulty = (256, "0"), (256, "1e-04")
    return [
        Claim("availability/256_clean/failures", 0, failures[clean], "=="),
        Claim("availability/256_clean/goodput", 1.0, goodput[clean], "=="),
        Claim("availability/256_1e-04/failures", 0, failures[faulty], ">"),
        Claim("availability/256_1e-04/goodput", 1.0, goodput[faulty], "<"),
        Claim("availability/256_1e-04/goodput_positive", 0.0, goodput[faulty], ">"),
    ]
