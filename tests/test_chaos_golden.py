"""The chaos harness's bit-identity bar, written down.

``tests/data/golden_chaos.json`` holds what :func:`run_chaos` returned
**before** its recovery rules (checkpoint slot, grace-window save, death and
restart charges, trainer rebuild) moved into the body it shares with the
cluster scheduler.  That change moves code, not numbers: every ledger field
of the :class:`~repro.resilience.chaos.ChaosReport` (floats as
``float.hex``), its derived rates, its ``DesyncEvent`` list, every loss and a
SHA-256 of the final parameters must equal the file, with no tolerance.

The cases run in accounting and in real-numerics mode and reach every
branch of the loop: a grace-window save that fits and one that does not,
chip deaths, stragglers, a bit flip resynced from the majority and one
rewound to the checkpoint, a heartbeat detector, wall-clock and
risk-adaptive checkpoint policies, a non-zero checkpoint write cost, a
caller-supplied trainer factory, and sampled plans over several seeds.
Only the wall-clock ``measured_phase_seconds`` is left out.  Regenerate
with ``tests/golden.py capture`` (see there), only when a change *means* to
move a number.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.controlplane.checkpointing import RiskAdaptive, WallClockInterval
from repro.controlplane.guard import ConsistencyGuard
from repro.controlplane.heartbeat import HeartbeatDetector
from repro.core import TrainerConfig
from repro.core.data_parallel import DataParallelTrainer
from repro.models.mlp import MLP
from repro.optim import Adam, SGDMomentum
from repro.resilience.chaos import ChaosConfig, ChaosReport, run_chaos
from repro.resilience.faults import (
    BitFlipFault,
    ChipFailure,
    FaultPlan,
    PreemptionSignal,
    StragglerFault,
)
from tests.golden import assert_matches, digest, encode, load

SEEDS = (0, 1, 7, 2021)
#: Sampled 2x2 plans that leave a chip alive (seed 2021 preempts both hosts).
REAL_SEEDS = (0, 6, 9, 16)

#: Report fields that are not part of the ledger: wall-clock phase times,
#: and the three stored in their own form below.
SKIPPED = {"measured_phase_seconds", "desync_events", "losses", "final_params"}

LAYERS, BATCH = [8, 16, 4], 12


def report_record(report: ChaosReport) -> dict[str, object]:
    """Everything a ``ChaosReport`` says but wall-clock time, floats as hex."""
    ledger = {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in SKIPPED
    }
    for rate in ("goodput", "mttr_seconds", "mttd_seconds"):
        ledger[rate] = getattr(report, rate)
    return encode({
        "ledger": ledger,
        "desyncs": [
            [e.device, e.injected_step, e.detected_step, e.recovery]
            for e in report.desync_events
        ],
        "losses": report.losses,
        "params": digest(report.final_params, root=None),
    })


def _batch(step: int):
    rng = np.random.default_rng(50_000 + step)
    return rng.standard_normal((BATCH, LAYERS[0])), rng.integers(0, LAYERS[-1], size=BATCH)


def _wus_config(seed: int = 3) -> TrainerConfig:
    return TrainerConfig(
        model=MLP(LAYERS), optimizer=Adam(learning_rate=0.01),
        strategy="wus", seed=seed,
    )


def _dp_factory(replicas: int):
    trainer = DataParallelTrainer(
        MLP(LAYERS), SGDMomentum(0.05), dp_x=replicas
    )
    trainer.init(np.random.default_rng(11))
    return trainer


def _preempt(grace_s: float) -> FaultPlan:
    return FaultPlan(
        preemptions=(PreemptionSignal(host=0, at_step=6, grace_s=grace_s),),
        stragglers=(StragglerFault((3, 0), start_step=2, duration_steps=3,
                                   slowdown=2.0),),
    )


def _flip(*devices) -> FaultPlan:
    return FaultPlan(bit_flips=tuple(
        BitFlipFault(device=d, at_step=5, index=3, bit=12) for d in devices
    ))


def cases():
    """``(key, plan, config, kwargs)`` for every run; ``kwargs`` pick the mode."""
    state = dict(state_bytes=int(2e9))
    acct_4x2 = ChaosConfig(mesh_shape=(4, 2), target_steps=20, chips_per_host=2)
    deaths = FaultPlan(
        chip_failures=(ChipFailure((1, 1), at_step=7), ChipFailure((2, 0), at_step=13)),
        stragglers=(StragglerFault((0, 0), start_step=3, duration_steps=4,
                                   slowdown=2.5),),
    )
    yield "acct/grace_fits", _preempt(30.0), acct_4x2, state
    yield "acct/grace_too_short", _preempt(1.5), acct_4x2, state
    yield "acct/chip_deaths_stragglers", deaths, acct_4x2, state
    yield "acct/heartbeat", deaths, acct_4x2, dict(
        state, detector=HeartbeatDetector(1.0, 0.5, 2)
    )
    yield "acct/write_seconds", deaths, dataclasses.replace(
        acct_4x2, checkpoint_write_seconds=0.25
    ), state
    yield "acct/wall_clock", deaths, dataclasses.replace(
        acct_4x2, checkpoint_write_seconds=0.1
    ), dict(state, checkpoint_policy=WallClockInterval(4.5))
    yield "acct/risk_adaptive", deaths, acct_4x2, dict(
        state, checkpoint_policy=RiskAdaptive.from_plan(
            deaths, horizon_s=20.0, state_bytes=int(2e9),
            bandwidth_bytes_per_s=1e9,
        ),
    )
    guard = ConsistencyGuard(check_interval=2, hash_seconds=0.125)
    acct_4x1 = ChaosConfig(mesh_shape=(4, 1), target_steps=12, checkpoint_interval=4)
    yield "acct/flip_resync", _flip((1, 0)), acct_4x1, dict(state, guard=guard)
    # Accounting mode marks each flipped replica apart: a 1-1 split is the tie.
    yield "acct/flip_rewind", _flip((1, 0)), dataclasses.replace(
        acct_4x1, mesh_shape=(2, 1)
    ), dict(state, guard=guard)
    for seed in SEEDS:
        plan = FaultPlan.sample(
            seed, (8, 8), 120, expected_chip_failures=3.0,
            expected_stragglers=5.0, expected_preemptions=2.0,
            expected_bit_flips=2.0, straggler_slowdown=2.5,
            preemption_grace_s=2.5,
        )
        config = ChaosConfig(
            mesh_shape=(8, 8), target_steps=120, checkpoint_interval=10,
            checkpoint_write_seconds=0.0625,
        )
        yield f"acct/sampled/seed{seed}", plan, config, dict(
            state, guard=ConsistencyGuard(check_interval=3)
        )

    real = dict(trainer_config=_wus_config(), batch_fn=_batch)
    real_4x1 = ChaosConfig(
        mesh_shape=(4, 1), target_steps=16, checkpoint_interval=4, chips_per_host=2
    )
    yield "real/grace_fits", _preempt(30.0), real_4x1, real
    yield "real/grace_too_short", _preempt(1e-9), real_4x1, real
    yield "real/chip_death_heartbeat", FaultPlan(
        chip_failures=(ChipFailure((2, 0), at_step=9),),
        stragglers=(StragglerFault((1, 0), start_step=1, duration_steps=3,
                                   slowdown=3.0),),
    ), real_4x1, dict(real, detector=HeartbeatDetector(1.0, 0.5, 2))
    yield "real/flip_resync", _flip((1, 0)), real_4x1, dict(real, guard=guard)
    yield "real/flip_rewind", _flip((1, 0), (2, 0)), real_4x1, dict(real, guard=guard)
    yield "real/factory_wall_clock", FaultPlan(
        chip_failures=(ChipFailure((0, 0), at_step=5), ChipFailure((3, 0), at_step=11)),
    ), dataclasses.replace(real_4x1, checkpoint_write_seconds=0.5), dict(
        trainer_factory=_dp_factory, batch_fn=_batch,
        checkpoint_policy=WallClockInterval(3.0),
    )
    for seed in REAL_SEEDS:
        plan = FaultPlan.sample(
            seed, (2, 2), 24, expected_chip_failures=1.0,
            expected_stragglers=1.0, expected_preemptions=0.5,
            expected_bit_flips=1.0, chips_per_host=2,
        )
        config = ChaosConfig(
            mesh_shape=(2, 2), target_steps=24, checkpoint_interval=5,
            chips_per_host=2,
        )
        yield f"real/sampled/seed{seed}", plan, config, dict(
            trainer_config=_wus_config(seed), batch_fn=_batch,
            guard=ConsistencyGuard(check_interval=2),
        )


def chaos_table() -> dict[str, object]:
    with telemetry.disabled():
        return {
            key: report_record(run_chaos(plan, config, **kwargs))
            for key, plan, config, kwargs in cases()
        }


TABLES = {"golden_chaos.json": chaos_table}


def test_chaos_runs_are_bit_identical_to_the_golden_file():
    assert_matches(chaos_table(), load("golden_chaos.json"))


def test_the_golden_cases_reach_every_branch_of_the_loop():
    """A golden file that never rewinds proves nothing about rewinding."""
    golden = load("golden_chaos.json")
    ledgers = {key: record["ledger"] for key, record in golden.items()}
    for mode in ("acct", "real"):
        runs = [ledger for key, ledger in ledgers.items() if key.startswith(mode)]
        assert any(ledger["grace_saves"] for ledger in runs), mode
        assert any(ledger["device_failures"] for ledger in runs), mode
        assert any(ledger["guard_checks"] for ledger in runs), mode
    assert ledgers["acct/grace_fits"]["grace_saves"] == 1
    assert ledgers["acct/grace_too_short"]["grace_saves"] == 0
    assert ledgers["acct/grace_too_short"]["preemptions"] == 1
    recoveries = {
        event[3] for record in golden.values() for event in record["desyncs"]
    }
    assert recoveries == {"resync", "rewind"}
    assert sum(record["params"] is not None for record in golden.values()) == 10


@pytest.mark.parametrize("key", ["acct/grace_fits", "real/flip_rewind"])
def test_telemetry_does_not_move_the_ledger(key, monkeypatch):
    """The file is written with telemetry off; the ledger must not depend on it."""
    monkeypatch.setattr(telemetry, "enabled", True)
    telemetry.reset()
    try:
        ((_, plan, config, kwargs),) = [c for c in cases() if c[0] == key]
        found = report_record(run_chaos(plan, config, **kwargs))
    finally:
        telemetry.reset()
    assert_matches({key: found}, {key: load("golden_chaos.json")[key]})

