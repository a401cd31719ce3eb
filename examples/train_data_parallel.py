"""Data parallelism + weight-update sharding, executed for real.

Trains a small classifier several ways on the functional virtual mesh —
single device, 8-replica data parallelism with the 2-D hierarchical
gradient all-reduce, and 8-replica weight-update sharding (Section 3.2)
with the LAMB optimizer under the linear-warmup / polynomial-decay
learning rate of the large-batch references (Sections 4.1 / 4.2) — and
shows that all of them produce *identical* weights, the invariant the
paper's systems optimizations must preserve.
Also demonstrates bfloat16 gradient summation (Section 3.3), the
backprop-overlapped bucketed collectives of the overlap engine (which
model concurrency without touching the math), and the distributed eval
metric of Section 3.4.

Every trainer is built through the unified ``make_trainer`` factory from
a declarative ``TrainerConfig``.

Run:
    python examples/train_data_parallel.py
"""

import itertools

import numpy as np

from repro.core import TrainerConfig, make_trainer
from repro.metrics.accuracy import distributed_top1_accuracy, pad_eval_dataset
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import LAMB, LinearWarmupPolyDecay

STEPS = 30
BATCH = 256


def main() -> None:
    rng = np.random.default_rng(0)
    model = MLP([16, 32, 16, 4])
    # One draw of class prototypes, split into train and held-out eval.
    all_x, all_y = synthetic_classification(rng, BATCH + 100, 16, 4, noise=0.1)
    x, y = all_x[:BATCH], all_y[:BATCH]
    eval_x, eval_y = all_x[BATCH:], all_y[BATCH:]

    # The schedule is a function of the step index alone, so every strategy
    # sees the same rate at the same step.
    schedule = LinearWarmupPolyDecay(peak=0.02, warmup_steps=5, total_steps=STEPS)
    base = TrainerConfig(model=model, optimizer=LAMB(schedule), seed=7)
    configs = {
        "single device": base.with_(strategy="single"),
        "8-replica DP (2-D all-reduce)": base.with_(
            strategy="data_parallel", mesh_shape=(4, 2)
        ),
        "8-replica DP + weight-update sharding": base.with_(
            strategy="wus", mesh_shape=(8, 1)
        ),
        "8-replica DP, bf16 gradients": base.with_(
            strategy="data_parallel", mesh_shape=(8, 1),
            grad_dtype_policy="bf16",
        ),
        "8-replica DP, 4-bucket overlap": base.with_(
            strategy="data_parallel", mesh_shape=(8, 1),
            num_buckets=4, overlap=True,
        ),
    }
    results = {}
    overlap_trainer = None
    for label, config in configs.items():
        trainer = make_trainer(config)  # seed=7 -> returned initialized
        loss = trainer.train(itertools.repeat((x, y)), STEPS).last_loss
        if config.overlap:
            overlap_trainer = trainer
        params = (
            trainer.params if trainer.params is not None else None
        )
        results[label] = (loss, params)
        print(f"{label:42s} final loss {loss:.6f}")

    ref = results["single device"][1]
    print("\nmax |param difference| vs single device:")
    for label, (_, params) in results.items():
        if label == "single device":
            continue
        diff = max(float(np.max(np.abs(params[k] - ref[k]))) for k in ref)
        print(f"  {label:42s} {diff:.3e}")

    # The overlap engine only models the timeline; its modeled schedule for
    # the last step is attached to the trainer.
    if overlap_trainer is not None and overlap_trainer.last_overlap is not None:
        ov = overlap_trainer.last_overlap
        print(
            f"\noverlap model (last step, {ov.num_buckets} buckets): "
            f"{ov.overlap_efficiency:.1%} of collective time hidden "
            f"behind backprop, exposed tail {ov.exposed_comm_seconds * 1e3:.3f} ms"
        )

    # Distributed evaluation (Section 3.4): pad the eval set to the device
    # batch, shard it, and all-reduce (correct, valid) counts.
    padded_x, padded_y, mask = pad_eval_dataset(eval_x, eval_y, 128)
    params = results["8-replica DP (2-D all-reduce)"][1]
    preds = model.predict(params, padded_x)
    shards = 8
    acc = distributed_top1_accuracy(
        np.split(preds, shards), np.split(padded_y, shards), np.split(mask, shards)
    )
    print(f"\ndistributed eval top-1 accuracy (padding excluded): {acc:.3f}")


if __name__ == "__main__":
    main()
