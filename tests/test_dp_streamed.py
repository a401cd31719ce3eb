"""The streamed 2-D data-parallel step against the whole-block step.

On a mesh whose dims both exceed 1, :class:`DataParallelTrainer` runs the
stacked forward/backward one mesh column at a time and hands each scaled
column to its buckets' Y-phase rings at once.  The whole-block step it
replaced made one stacked call into ``(n, bucket.size)`` blocks, scaled
them by ``1 / n`` and ran :func:`two_phase_all_reduce_stacked` on each.
These tests rebuild that step from its parts and want the same bits (the
per-replica losses, the reduced gradients, the step loss and the updated
parameters, compared with ``tobytes()``) and the same collective
telemetry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.data_parallel import DataParallelTrainer
from repro.models.mlp import MLP
from repro.optim import SGDMomentum
from repro.runtime.bucket import BucketPlan
from repro.runtime.collectives import two_phase_all_reduce_stacked

POLICIES = ("f64", "f32", "bf16")

DETERMINISTIC = settings(settings.get_profile("ci"), max_examples=30)


def _whole_block_step(trainer, x, labels):
    """The step as one stacked call into ``(n, P)`` blocks: ``(losses,
    reduced mean gradients, step loss, updated params)``."""
    model, params, n = trainer.model, trainer.params, trainer.num_replicas
    plan = BucketPlan(
        {name: params[name] for name in model.grad_names}, trainer.num_buckets
    )
    dtype = np.result_type(*(p.dtype for p in params.values()))
    blocks = [np.empty((n, bucket.size), dtype=dtype) for bucket in plan.buckets]
    views = {}
    for bucket, block in zip(plan.buckets, blocks):
        views.update(bucket.stacked_views(block))
    xs, ys = x.reshape(n, -1, *x.shape[1:]), labels.reshape(n, -1)
    losses, _ = model.loss_and_grad(params, xs, ys, out=views)
    mean = {}
    for bucket, block in zip(plan.buckets, blocks):
        block /= n
        reduced = two_phase_all_reduce_stacked(
            block, (trainer.dp_x, trainer.dp_y), trainer.grad_dtype_policy
        )
        mean.update(bucket.unflatten(reduced.block[0]))
    new_params, _ = trainer.optimizer.update(params, mean, trainer.state, 0)
    return losses, mean, float(np.add.reduce(losses)) / losses.size, new_params


def _assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@DETERMINISTIC
@given(
    x=st.integers(2, 5),
    y=st.integers(2, 5),
    sizes=st.tuples(
        st.sampled_from([3, 5, 7]), st.sampled_from([5, 7, 11]), st.sampled_from([2, 3])
    ),
    rows=st.integers(1, 3),
    num_buckets=st.integers(1, 3),
    overlap=st.booleans(),
    policy=st.sampled_from(POLICIES),
    poison=st.sampled_from([None, "huge", "nan"]),
    seed=st.integers(0, 2**16),
)
@example(
    x=3, y=4, sizes=(5, 7, 3), rows=2, num_buckets=2, overlap=True,
    policy="bf16", poison="huge", seed=1,
)
@example(
    x=2, y=3, sizes=(3, 5, 2), rows=1, num_buckets=3, overlap=False,
    policy="bf16", poison="nan", seed=2,
)
def test_streamed_step_is_the_whole_block_step(
    x, y, sizes, rows, num_buckets, overlap, policy, poison, seed
):
    """Bucket sizes here are odd, so most draws pad both ring phases.  A
    ``poison`` puts ±inf (after bf16 rounding) or NaN into one replica's
    gradients.  Every source piece of every column is probed for NaN as it
    is converted at its first hop, so the poisoned column restores its NaN
    where the others find none; the bits must equal the whole-block
    step's either way."""
    rng = np.random.default_rng(seed)
    n = x * y
    features, hidden, classes = sizes
    model = MLP([features, hidden, classes])
    trainer = DataParallelTrainer(
        model, SGDMomentum(0.05), x, y, grad_dtype_policy=policy,
        num_buckets=num_buckets, overlap=overlap,
    )
    trainer.init(rng)
    batch = rng.standard_normal((n * rows, features))
    labels = rng.integers(0, classes, size=n * rows)
    if poison is not None:
        replica = int(rng.integers(0, n))
        batch[replica * rows] = 1e200 if poison == "huge" else np.nan

    with np.errstate(all="ignore"):
        losses, mean, loss, params = _whole_block_step(trainer, batch, labels)
        got_losses, grads = trainer._forward_backward(*trainer._split(batch, labels))
        got_mean = trainer._summed_mean_grads(grads)
        got_loss = trainer.step(batch, labels)

    assert [b.shape[0] for b in trainer._grad_blocks] == [y] * len(trainer._plan.buckets)
    _assert_same_bits(np.asarray(got_losses), np.asarray(losses))
    assert got_mean.keys() == mean.keys()
    for name in mean:
        _assert_same_bits(got_mean[name], mean[name])
    assert float(got_loss).hex() == loss.hex()
    for name in params:
        _assert_same_bits(trainer.params[name], params[name])


def _collective_telemetry() -> dict:
    """The step's collective counters by child, and its
    ``collective_seconds`` observation count by child."""
    snapshot = telemetry.metrics.snapshot()
    out = {}
    for family in ("collective_bytes", "collective_ring_steps", "collective_launches"):
        for child in snapshot.get(family, {"values": []})["values"]:
            out[(family, tuple(sorted(child["labels"].items())))] = child["value"]
    for child in snapshot.get("collective_seconds", {"values": []})["values"]:
        key = ("collective_seconds", tuple(sorted(child["labels"].items())))
        out[key] = child["count"]
    return out


@pytest.mark.parametrize("policy", POLICIES)
def test_streamed_step_writes_the_whole_block_collective_telemetry(
    policy, monkeypatch
):
    monkeypatch.setattr(telemetry, "enabled", True)
    x, y, buckets = 3, 4, 2
    rng = np.random.default_rng(3)
    trainer = DataParallelTrainer(
        MLP([5, 7, 3]), SGDMomentum(0.05), x, y, grad_dtype_policy=policy,
        num_buckets=buckets, overlap=True,
    )
    trainer.init(rng)
    batch = rng.standard_normal((2 * x * y, 5))
    labels = rng.integers(0, 3, size=2 * x * y)
    try:
        telemetry.reset()
        _whole_block_step(trainer, batch, labels)
        want = _collective_telemetry()
        telemetry.reset()
        result = trainer.step(batch, labels)
        got = _collective_telemetry()
        spans = [
            e for e in telemetry.tracer.trace.events if e.name == "reduce_scatter_y"
        ]
    finally:
        telemetry.reset()

    assert got == want and want
    assert list(result.phase_seconds) == [
        "split", "forward_backward", "collective", "update"
    ]
    # One Y-phase span per column call, column by column, bucket by bucket.
    assert len(spans) == x * buckets
    # Each bucket's launch record covers its Y phase, so the overlap model
    # sees the bucket's whole collective.
    launches = trainer._last_launches
    assert len(launches) == buckets
    for i, (_, seconds) in enumerate(launches):
        assert seconds >= sum(e.duration for e in spans[i::buckets])
