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
from repro.runtime.bucket import BucketPlan, GradientBucket
from repro.runtime.collectives import (
    ShardedValue,
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


def bucketed_sharded_update(
    params: Params,
    grad_block: np.ndarray,
    optimizer: Optimizer,
    slots: dict[str, np.ndarray],
    step: int,
    bucket: GradientBucket,
    dtype_policy: str = "f64",
) -> Params:
    """One weight-update-sharded step with *fused* gradient buckets.

    Same math as :func:`sharded_update` but the whole model travels in a
    single pair of collectives: ``grad_block`` is the device-major
    ``(n, bucket.size)`` stack of every device's gradients in the bucket's
    layout (already scaled so their *sum* is the desired global gradient),
    ONE reduce-scatter leaves each device a contiguous window of it
    (generally spanning several parameters), and ONE all-gather broadcasts
    the updated fused weights.

    ``slots`` holds each optimizer slot as one flat, bucket-ordered float64
    array of ``bucket.size`` elements; device ``d``'s shard of it is
    window ``d``, exactly as in the reduce-scatter's shard block.  A
    parameter's shards across the devices are therefore one contiguous
    range of every flat array, so its update runs once over that range,
    while its trust-ratio norms are still summed per device segment, in
    device order; an elementwise optimizer updates the whole window at
    once (:meth:`~repro.optim.base.Optimizer.update_window`).  The slots
    are updated in place; the new parameters are returned.  The bucket
    should be float64 so the update math matches the per-parameter path.
    """
    if grad_block.ndim != 2 or grad_block.shape[1] != bucket.size:
        raise ValueError(
            f"grad_block must be (n, {bucket.size}); got {grad_block.shape}"
        )
    n = grad_block.shape[0]
    if n < 1:
        raise ValueError("need at least one device")
    flat_params = bucket.flatten(params)
    # 1. ONE fused reduce-scatter over the whole model's gradients, fed as
    #    a single device-major stack so quantization and the ring sweeps
    #    run whole-block.  Its shard block, read flat, is the summed
    #    gradient in bucket order.
    sharded = ring_reduce_scatter(grad_block, dtype_policy)
    t0 = _perf()
    grads = sharded.block.reshape(-1).astype(np.float64, copy=False)
    # 2. the optimizer over the bucket's window: per layer, over its one
    #    range, the segment-partial norms summed across the devices holding
    #    it (the tiny scalar all-reduce of sharded_update), then the
    #    elementwise update — or, for an elementwise optimizer, one update
    #    of the whole window — written into one (n, chunk) block of
    #    per-device chunk rows (the gather reads it without concatenating).
    size, chunk = bucket.size, sharded.block.shape[1]
    new_block = np.empty((n, chunk), dtype=np.float64)  # padding never read
    optimizer.update_window(
        bucket.tensor_segments(n), flat_params, grads[:size], slots, step,
        new_block.reshape(-1)[:size],
    )
    if _telemetry.enabled:
        tracer = _telemetry.tracer
        tracer.emit("sharded_update", "update", tracer.actor, t0, _perf())
    # 3. ONE fused all-gather of the updated weight shards, lazily
    #    replicated: its one physical row views this step's freshly owned
    #    block, so the new weights are views of that row.
    gathered = ring_all_gather_stacked(
        ShardedValue(
            shards=list(new_block),
            shape=(size,),
            padded_size=n * chunk,
            block=new_block,
        )
    )
    new_flat = gathered.block[0]
    return {
        name: new_flat[bucket.slice_of(name)]
        .reshape(bucket.shapes[name])
        .astype(params[name].dtype, copy=False)
        for name in bucket.names
    }


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
        #: Per bucket, each optimizer slot as one flat bucket-ordered array,
        #: device ``d`` holding window ``d`` — the only form the optimizer
        #: slots exist in (``state`` is None).
        self._bucket_slots: list[dict[str, np.ndarray]] | None = None

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        """One step: the fused reduce-scatter -> sharded update -> all-gather.

        A single ``wus_update`` phase per step; its comm and update parts
        emit their own nested spans.
        """
        with self._step(x, labels) as run:
            with run.phase("wus_update", "update"):
                for i, (bucket, block) in enumerate(zip(self._plan.buckets, run.grads)):
                    b0 = _perf()
                    new_params = bucketed_sharded_update(
                        self.params,
                        block,
                        self.optimizer,
                        self._bucket_slots[i],
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
        checkpoint must be shape-independent: each full slot is the range
        of its parameter in the flat arrays the device windows tile, copied
        out, so the snapshot can restore onto any replica count.
        Reassembly is pure data movement — no arithmetic — so a same-shape
        round trip is bit-exact.
        """
        merged: OptimizerState = {}
        for bucket, slots in zip(self._plan.buckets, self._bucket_slots):
            for name, span, _ in bucket.tensor_segments(self.num_replicas):
                merged[name] = {
                    slot: flat[span].reshape(bucket.shapes[name]).copy()
                    for slot, flat in slots.items()
                }
        # Buckets cover the tree in reverse order; restore template order.
        return {name: merged[name] for name in self.params}

    def _load_state(self, full_state: OptimizerState) -> None:
        """Lay the full slots out flat along this mesh's bucketed layout.

        ``init`` and a restore run the same layout, the latter over the
        checkpointed assembled tensors and this trainer's (possibly
        different) ``num_replicas``: every slot of a bucket becomes one
        flat array in bucket order, whose device windows follow from the
        replica count alone.  A checkpoint taken on n devices therefore
        restores onto the n-1 survivors — or any other shape — with
        identical training semantics.  The device segments the steps sum
        their norms over are looked up here, so the first step finds them.

        Unlike the data-parallel plan, this one follows ``params`` order; the
        next step lays the gradient blocks out along it.
        """
        self._plan = BucketPlan(self.params, self.num_buckets, dtype=np.float64)
        self._bucket_slots = []
        for bucket in self._plan.buckets:
            slots: dict[str, np.ndarray] = {}
            for name, span, _ in bucket.tensor_segments(self.num_replicas):
                for slot, values in full_state[name].items():
                    if slot not in slots:
                        slots[slot] = np.empty(bucket.size, dtype=np.float64)
                    slots[slot][span] = np.asarray(values).reshape(-1)
            self._bucket_slots.append(slots)
        self.state = None  # slots only exist sharded from here on
