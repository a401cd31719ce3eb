"""Weight-update sharding (Xu et al. 2020; Section 3.2 of the paper).

In plain data parallelism every replica applies the full optimizer update —
for LAMB on BERT that was measured at ~18% of the step on 512 chips.  WUS
replaces it with:

1. a **reduce-scatter** of the gradients (instead of a full all-reduce),
   leaving each device one shard of the summed gradients;
2. a shard-local optimizer update, with the per-layer *trust-ratio norms*
   of LARS/LAMB computed by summing shard-partial squared norms across
   devices (a tiny scalar all-reduce per layer);
3. an **all-gather** that broadcasts the updated weight shards.

Optimizer slot variables (momenta) only ever exist in sharded form, which
also divides their HBM footprint by the replica count.

The functions here execute this on real numpy buffers; the equivalence
tests check that WUS training matches replicated-update training exactly
(same collective ordering, float64).
"""

from __future__ import annotations

from time import perf_counter as _perf

import numpy as np

from repro import telemetry as _telemetry
from repro.core.trainer import StepResult
from repro.optim.base import Optimizer, OptimizerState, Params
from repro.resilience.checkpoint import unshard_state_segments
from repro.runtime.bucket import BucketPlan, GradientBucket
from repro.runtime.collectives import (
    ShardedValue,
    padded_chunk_layout,
    ring_all_gather_stacked,
    ring_reduce_scatter,
)
from repro.core.data_parallel import DataParallelTrainer


def _chunk(flat: np.ndarray, num_devices: int) -> list[np.ndarray]:
    """Split a flattened array into device chunks (zero-padded)."""
    size = flat.size
    padded = ((size + num_devices - 1) // num_devices) * num_devices
    if padded != size:
        flat = np.concatenate([flat, np.zeros(padded - size, dtype=flat.dtype)])
    return np.split(flat, num_devices)


def shard_states(
    state: OptimizerState, num_devices: int
) -> list[OptimizerState]:
    """Split every optimizer slot into per-device shards.

    Returns one state dict per device; device ``d`` holds chunk ``d`` of
    each flattened slot (matching the reduce-scatter chunk assignment).
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    per_device: list[OptimizerState] = [dict() for _ in range(num_devices)]
    for name, slots in state.items():
        chunked = {
            slot: _chunk(arr.reshape(-1), num_devices) for slot, arr in slots.items()
        }
        for d in range(num_devices):
            per_device[d][name] = {slot: chunked[slot][d] for slot in chunked}
    return per_device


def sharded_update(
    params: Params,
    per_device_grads: list[dict[str, np.ndarray]],
    optimizer: Optimizer,
    sharded_state: list[OptimizerState],
    step: int,
    dtype_policy: str = "f64",
) -> tuple[Params, list[OptimizerState]]:
    """One weight-update-sharded optimizer step.

    ``params`` are the (replicated) weights; ``per_device_grads[d]`` the raw
    gradients computed by replica ``d`` (already scaled so their *sum* is
    the desired global gradient); ``sharded_state[d]`` each device's slot
    shards.  Returns the new replicated params and new sharded states.
    """
    n = len(per_device_grads)
    if n < 1:
        raise ValueError("need at least one device")
    if len(sharded_state) != n:
        raise ValueError("sharded_state must have one entry per device")
    new_params: Params = {}
    new_states: list[OptimizerState] = [dict() for _ in range(n)]
    for name, param in params.items():
        flat_param_chunks = _chunk(param.reshape(-1).astype(np.float64), n)
        # 1. reduce-scatter the gradient: device d ends with summed chunk d.
        sharded = ring_reduce_scatter(
            [g[name] for g in per_device_grads], dtype_policy
        )
        grad_shards = sharded.shards
        # 2. shard-local partial norms + scalar all-reduce (a plain sum —
        #    the payload is a handful of floats per layer), then the
        #    shard-local elementwise update, written into one (n, chunk)
        #    block so the gather below reads it without concatenating.
        updated = optimizer.update_shards(
            name,
            [
                (
                    flat_param_chunks[d],
                    grad_shards[d].astype(np.float64),
                    sharded_state[d][name],
                )
                for d in range(n)
            ],
            step,
        )
        new_block = np.empty((n, flat_param_chunks[0].size), dtype=np.float64)
        for d, (new_chunk, new_slot) in enumerate(updated):
            new_block[d] = new_chunk
            new_states[d][name] = new_slot
        # 3. all-gather the updated weight shards; the result is lazily
        #    replicated (one physical buffer) and the cast below copies it
        #    into the independently owned replica the trainer keeps.
        gathered = ring_all_gather_stacked(
            ShardedValue(
                shards=list(new_block),
                shape=param.shape,
                padded_size=new_block.size,
                block=new_block,
            )
        )
        new_params[name] = gathered.device_view(0).astype(param.dtype)
    return new_params, new_states


def shard_state_segments(
    state: OptimizerState, bucket: GradientBucket, num_devices: int
) -> list[OptimizerState]:
    """Shard optimizer slots along the *fused* bucket layout.

    Device ``d`` holds, for every parameter overlapping its fused
    reduce-scatter window, the slot values of exactly that segment —
    zero-copy views into the replicated slots (segments of distinct devices
    are disjoint, so no aliasing between devices).
    """
    if num_devices < 1:
        raise ValueError("num_devices must be >= 1")
    per_device: list[OptimizerState] = [dict() for _ in range(num_devices)]
    for d, segs in enumerate(bucket.shard_segments(num_devices)):
        for seg in segs:
            slots = state[seg.name]
            per_device[d][seg.name] = {
                slot: arr.reshape(-1)[seg.tensor_slice] for slot, arr in slots.items()
            }
    return per_device


def bucketed_sharded_update(
    params: Params,
    per_device_grads: list[dict[str, np.ndarray]],
    optimizer: Optimizer,
    sharded_state: list[OptimizerState],
    step: int,
    bucket: GradientBucket,
    dtype_policy: str = "f64",
) -> tuple[Params, list[OptimizerState]]:
    """One weight-update-sharded step with *fused* gradient buckets.

    Same math as :func:`sharded_update` but the whole model travels in a
    single pair of collectives: every device's gradients are flattened into
    one bucket buffer, ONE reduce-scatter leaves each device a contiguous
    window of the fused buffer (generally spanning several parameters), the
    per-layer trust-ratio norms are accumulated per *segment*, and ONE
    all-gather broadcasts the updated fused weights.  ``sharded_state`` must
    come from :func:`shard_state_segments` with the same bucket; the bucket
    should be float64 so the update math matches the per-parameter path.
    """
    n = len(per_device_grads)
    if n < 1:
        raise ValueError("need at least one device")
    if len(sharded_state) != n:
        raise ValueError("sharded_state must have one entry per device")
    flat_params = bucket.flatten(params)
    # 1. ONE fused reduce-scatter over the whole model's gradients, fed as
    #    a single device-major (n, bucket.size) stack so quantization and
    #    the ring sweeps run whole-block.
    grad_block = np.empty((n, bucket.size), dtype=bucket.dtype)
    for d, g in enumerate(per_device_grads):
        bucket.flatten(g, out=grad_block[d])
    sharded = ring_reduce_scatter(grad_block, dtype_policy)
    grad_shards = sharded.shards
    with _telemetry.tracer.span("sharded_update", category="update"):
        # Which (device, segment) windows hold each layer, in device order.
        holders: dict[str, list] = {name: [] for name in bucket.names}
        for d, window in enumerate(bucket.shard_segments(n)):
            for seg in window:
                holders[seg.name].append((d, seg))
        # 2. per layer: segment-partial norms summed across the devices
        #    holding it (the tiny scalar all-reduce of sharded_update, now
        #    over segments), then the segment-local elementwise update into
        #    one (n, chunk) block of per-device chunk rows (the gather
        #    reads it without concatenating).
        _, chunk = padded_chunk_layout(n, bucket.size)
        new_block = np.zeros((n, chunk), dtype=np.float64)
        new_states: list[OptimizerState] = [dict() for _ in range(n)]
        for name, held in holders.items():
            updated = optimizer.update_shards(
                name,
                [
                    (
                        flat_params[seg.bucket_slice],
                        grad_shards[d][seg.local_slice].astype(np.float64),
                        sharded_state[d][name],
                    )
                    for d, seg in held
                ],
                step,
            )
            for (d, seg), (new_vals, new_slot) in zip(held, updated):
                new_block[d, seg.local_slice] = new_vals
                new_states[d][name] = new_slot
    # 3. ONE fused all-gather of the updated weight shards (lazily
    #    replicated; the per-param astype below copies out of it).
    gathered = ring_all_gather_stacked(
        ShardedValue(
            shards=list(new_block),
            shape=(bucket.size,),
            padded_size=n * chunk,
            block=new_block,
        )
    )
    new_flat = gathered.device_view(0)
    new_params = {
        name: new_flat[bucket.slice_of(name)]
        .reshape(bucket.shapes[name])
        .astype(params[name].dtype)
        for name in bucket.names
    }
    return new_params, new_states


class WeightUpdateShardedTrainer(DataParallelTrainer):
    """Data-parallel trainer with the sharded optimizer update.

    Same training semantics as :class:`DataParallelTrainer`; the difference
    is purely in how the update executes — which is the paper's point: WUS
    is a systems optimization that must not change the math.

    The update runs bucketed (:func:`bucketed_sharded_update`): one
    reduce-scatter + one all-gather per bucket instead of one pair per
    parameter, with optimizer slots sharded along the fused layout.
    :func:`sharded_update` is the per-parameter algorithm stated literally,
    kept as the reference the equivalence tests step beside this trainer.

    ``num_buckets > 1`` splits the model into backprop-ordered
    buckets, each with its own reduce-scatter -> sharded update ->
    all-gather pipeline stage; ``overlap=True`` models those stages
    launching behind the backward pass.  As in
    :class:`~repro.core.data_parallel.DataParallelTrainer`, overlap mode
    changes only the modeled timeline, never the arithmetic.
    """

    def __init__(
        self,
        model,
        optimizer: Optimizer,
        num_replicas: int,
        grad_dtype_policy: str = "f64",
        num_buckets: int = 1,
        overlap: bool = False,
    ) -> None:
        super().__init__(
            model, optimizer, dp_x=num_replicas, dp_y=1,
            grad_dtype_policy=grad_dtype_policy,
            num_buckets=num_buckets, overlap=overlap,
        )
        #: Per bucket, each device's slot shards along the fused layout —
        #: the only form the optimizer slots exist in (``state`` is None).
        self._bucket_states: list[list[OptimizerState]] | None = None

    def _loss_and_grad(self, x: np.ndarray, labels: np.ndarray):
        loss, grads = self.model.loss_and_grad(self.params, x, labels)
        n = self.num_replicas
        # Pre-scale so the reduce-scatter sum is the global mean.
        return loss, {k: v / n for k, v in grads.items()}

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        """One step: the fused reduce-scatter -> sharded update -> all-gather.

        A single ``wus_update`` phase per step; its comm and update parts
        emit their own nested spans.
        """
        with self._step(x, labels) as run:
            with run.phase("wus_update", "update"):
                for i, bucket in enumerate(self._plan.buckets):
                    b0 = _perf()
                    # flatten() only reads the bucket's own names, so the
                    # full trees pass through unchanged.
                    new_params, self._bucket_states[i] = bucketed_sharded_update(
                        self.params,
                        run.grads,
                        self.optimizer,
                        self._bucket_states[i],
                        self.step_index,
                        bucket,
                        self.grad_dtype_policy,
                    )
                    self.params = {**self.params, **new_params}
                    # Each bucket's modeled occupancy is its whole pipeline
                    # stage (reduce-scatter + sharded update + all-gather):
                    # that is what serializes on the reduce network under WUS.
                    self._last_launches.append(
                        (bucket.size * bucket.dtype.itemsize, _perf() - b0)
                    )
        return run.result

    def _full_state(self) -> OptimizerState:
        """The sharded optimizer state **reassembled**.

        The slots only exist sharded (that is WUS's memory saving), but a
        checkpoint must be shape-independent: each slot is gathered from
        its per-device shards into the full replicated tensor, so the
        snapshot can restore onto any replica count.  Reassembly is pure
        data movement — no arithmetic — so a same-shape round trip is
        bit-exact.
        """
        merged: OptimizerState = {}
        for bucket, states in zip(self._plan.buckets, self._bucket_states):
            merged.update(unshard_state_segments(states, bucket))
        # Buckets cover the tree in reverse order; restore template order.
        return {name: merged[name] for name in self.params}

    def _load_state(self, full_state: OptimizerState) -> None:
        """**Reshard** the full slots along this mesh's bucketed fused layout.

        GSPMD-style resharding in miniature: ``init`` and a restore run the
        same segment sharding, the latter over the checkpointed assembled
        tensors and this trainer's (possibly different) ``num_replicas``.
        A checkpoint taken on n devices therefore restores onto the n-1
        survivors — or any other shape — with identical training semantics.
        """
        self._plan = BucketPlan(self.params, self.num_buckets, dtype=np.float64)
        self._bucket_states = [
            shard_state_segments(full_state, bucket, self.num_replicas)
            for bucket in self._plan.buckets
        ]
        self.state = None  # slots only exist sharded from here on
