"""The trainers' bit-identity bar, written down.

``tests/data/golden_train.json`` holds what the four training strategies
produced **before** the MLP trained every replica in one stacked call and
wrote its gradients straight into the collective's block.  That change
moves work, not numbers: per arm, every step's loss (``float.hex``) and a
SHA-256 of the final parameters and of the ``save_checkpoint()`` slots
after :data:`STEPS` steps must equal the file, with no tolerance.

The arms are the benchmark's five ``train_step`` arms, weight-update
sharding with bf16 gradients over three buckets, and the ``MLP([8, 16, 4])``
the service's chaos jobs train — on one device, on a 2x2 data-parallel
mesh and under weight-update sharding at 4, 3 and 2 replicas (the survivor
counts of a 2x2 mesh) — with each of SGD with momentum, Adam, LARS and
LAMB; one hybrid data x model parallel row; and one real-numerics
``run_chaos`` report built exactly as the service's chaos executor builds
it, through three chip deaths.

It uses nothing but entry points that exist on both sides of the change,
so the earlier commit wrote the file.  Regenerate with ``tests/golden.py
capture`` (see there), only when a change *means* to move a number.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro import telemetry
from repro.core import TrainerConfig, make_trainer
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import LAMB, LARS, Adam, SGDMomentum
from repro.resilience import chaos
from repro.service.executors import execute_chaos
from tests.golden import assert_matches, digest, encode, load

STEPS = 20

OPTIMIZERS = {
    "sgd_momentum": lambda: SGDMomentum(0.05),
    "adam": lambda: Adam(0.01),
    "lars": lambda: LARS(0.5),
    "lamb": lambda: LAMB(0.02),
}

#: The benchmark's ``train_step`` task: model, global batch, batches cycled.
BENCH_LAYERS, BENCH_BATCH, BENCH_BATCHES = [64, 256, 256, 16], 512, 4
#: arm -> ``TrainerConfig`` overrides, trained with ``LAMB(0.02)``.
BENCH_ARMS = {
    "single": dict(strategy="single"),
    "dp_2d": dict(strategy="data_parallel", mesh_shape=(8, 4)),
    "wus_ring": dict(strategy="wus", mesh_shape=(32, 1)),
    "dp_bf16_overlap": dict(
        strategy="data_parallel", mesh_shape=(8, 4),
        grad_dtype_policy="bf16", num_buckets=4, overlap=True,
    ),
    "dp_256": dict(strategy="data_parallel", mesh_shape=(16, 16)),
    "wus_bf16_3_buckets": dict(
        strategy="wus", mesh_shape=(8, 1), grad_dtype_policy="bf16", num_buckets=3,
    ),
}

#: The chaos job's model and its 12-sample batches.
CHAOS_LAYERS, CHAOS_BATCH = [8, 16, 4], 12
CHAOS_ARMS = {
    "single": dict(strategy="single"),
    "dp_2x2": dict(strategy="data_parallel", mesh_shape=(2, 2)),
    "wus_4": dict(strategy="wus", mesh_shape=(4, 1)),
    "wus_3": dict(strategy="wus", mesh_shape=(3, 1)),
    "wus_2": dict(strategy="wus", mesh_shape=(2, 1)),
}
HYBRID = dict(strategy="hybrid", mesh_shape=(2, 1), mp_size=2)

#: A service chaos job whose sampled plan kills three of the four chips
#: (steps 8, 29 and 40), so the WUS trainer restores onto 3, 2 and 1.
CHAOS_JOB = {
    "mesh_shape": [2, 2], "steps": 50, "seed": 4,
    "expected_chip_failures": 1.5, "expected_stragglers": 1.0,
}


def _bench_batches():
    rng = np.random.default_rng(1)
    x, y = synthetic_classification(
        rng, BENCH_BATCH * BENCH_BATCHES, BENCH_LAYERS[0], BENCH_LAYERS[-1]
    )
    return [
        (x[i * BENCH_BATCH:(i + 1) * BENCH_BATCH], y[i * BENCH_BATCH:(i + 1) * BENCH_BATCH])
        for i in range(BENCH_BATCHES)
    ]


def _chaos_batch(step: int):
    """The chaos executor's ``batch_fn`` at seed 0."""
    rng = np.random.default_rng((0, step))
    return rng.standard_normal((CHAOS_BATCH, CHAOS_LAYERS[0])), rng.integers(
        0, CHAOS_LAYERS[-1], size=CHAOS_BATCH
    )


def arms():
    """``key -> (TrainerConfig, batch_fn)`` for every trained arm."""
    out = {}
    bench = _bench_batches()
    for arm, overrides in BENCH_ARMS.items():
        config = TrainerConfig(
            model=MLP(BENCH_LAYERS), optimizer=LAMB(0.02), seed=7, **overrides
        )
        out[f"bench/{arm}"] = (config, lambda step: bench[step % BENCH_BATCHES])
    for opt_name, make_opt in OPTIMIZERS.items():
        for arm, overrides in CHAOS_ARMS.items():
            config = TrainerConfig(
                model=MLP(CHAOS_LAYERS), optimizer=make_opt(), seed=0, **overrides
            )
            out[f"chaos_mlp/{arm}/{opt_name}"] = (config, _chaos_batch)
    config = TrainerConfig(model=MLP(CHAOS_LAYERS), optimizer=LAMB(0.02), seed=0, **HYBRID)
    out["chaos_mlp/hybrid_2x2/lamb"] = (config, _chaos_batch)
    return out


def arm_record(config: TrainerConfig, batch_fn) -> dict[str, object]:
    trainer = make_trainer(config)
    losses = [float(trainer.step(*batch_fn(step))) for step in range(STEPS)]
    if config.strategy == "hybrid":
        return encode({
            "losses": losses,
            "params": digest(trainer.full_params()),
            "state": digest(trainer.shard_states),
        })
    ckpt = trainer.save_checkpoint()
    return encode({
        "losses": losses,
        "params": digest(trainer.params),
        "checkpoint": digest(
            {"step": np.int64(ckpt.step_index), "params": ckpt.params, "slots": ckpt.opt_state}
        ),
    })


def chaos_record() -> dict[str, object]:
    """The chaos executor's full-mode run, its ``ChaosReport`` caught on the
    way out of ``run_chaos``."""
    caught = []

    def recording(*args, **kwargs):
        report = real(*args, **kwargs)
        caught.append(report)
        return report

    real = chaos.run_chaos
    with mock.patch.object(chaos, "run_chaos", recording):
        payload = execute_chaos(dict(CHAOS_JOB))
    (report,) = caught
    return encode({
        "losses": [float(v) for v in report.losses],
        "params": digest(report.final_params),
        "survivors": payload["survivors"],
        "device_failures": payload["device_failures"],
    })


def train_table() -> dict[str, object]:
    with telemetry.disabled():
        out = {key: arm_record(*arm) for key, arm in arms().items()}
        out["chaos_job"] = chaos_record()
    return out


TABLES = {"golden_train.json": train_table}


@pytest.mark.parametrize("key", sorted(arms()))
def test_training_is_bit_identical_to_the_golden_file(key):
    config, batch_fn = arms()[key]
    with telemetry.disabled():
        found = arm_record(config, batch_fn)
    assert_matches({key: found}, {key: load("golden_train.json")[key]})


def test_chaos_job_is_bit_identical_to_the_golden_file():
    with telemetry.disabled():
        found = chaos_record()
    assert_matches({"chaos_job": found}, {"chaos_job": load("golden_train.json")["chaos_job"]})


def test_the_golden_file_covers_every_arm():
    """One row per arm, and the chaos run really lost chips mid-training."""
    golden = load("golden_train.json")
    assert set(golden) == set(arms()) | {"chaos_job"}
    job = golden["chaos_job"]
    assert job["device_failures"] == 3 and job["survivors"] == 1
    assert len(job["losses"]) >= CHAOS_JOB["steps"]

