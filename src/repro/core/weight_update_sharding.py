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
from repro.resilience.checkpoint import (
    TrainerCheckpoint,
    record_checkpoint_metrics,
    unshard_state_segments,
)
from repro.runtime.bucket import BucketPlan, GradientBucket
from repro.runtime.collectives import (
    ShardedValue,
    padded_chunk_layout,
    ring_all_gather_stacked,
    ring_reduce_scatter,
)
from repro.core.data_parallel import (
    DataParallelTrainer,
    _copy_params,
    _copy_state,
)


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
        # 2a. shard-local partial norms + scalar all-reduce (a plain sum —
        #     the payload is a handful of floats per layer).
        partials = [
            optimizer.norm_stats(
                name,
                flat_param_chunks[d],
                grad_shards[d].astype(np.float64),
                sharded_state[d][name],
                step,
            )
            for d in range(n)
        ]
        stats: dict[str, float] = {}
        for partial in partials:
            for key, value in partial.items():
                stats[key] = stats.get(key, 0.0) + value
        # 2b. shard-local elementwise update, written into one (n, chunk)
        #     block so the gather below reads it without concatenating.
        new_block = np.empty((n, flat_param_chunks[0].size), dtype=np.float64)
        for d in range(n):
            new_chunk, new_slot = optimizer.apply(
                name,
                flat_param_chunks[d],
                grad_shards[d].astype(np.float64),
                sharded_state[d][name],
                step,
                stats,
            )
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
    windows = bucket.shard_segments(n)
    with _telemetry.tracer.span("sharded_update", category="update"):
        # 2a. per-segment partial norms, summed per layer across devices (the
        #     tiny scalar all-reduce of sharded_update, now over segments).
        stats: dict[str, dict[str, float]] = {name: {} for name in bucket.names}
        for d in range(n):
            for seg in windows[d]:
                partial = optimizer.norm_stats(
                    seg.name,
                    flat_params[seg.bucket_slice],
                    grad_shards[d][seg.local_slice].astype(np.float64),
                    sharded_state[d][seg.name],
                    step,
                )
                acc = stats[seg.name]
                for key, value in partial.items():
                    acc[key] = acc.get(key, 0.0) + value
        # 2b. segment-local elementwise update into one (n, chunk) block of
        #     per-device chunk rows (the gather reads it without concatenating).
        _, chunk = padded_chunk_layout(n, bucket.size)
        new_block = np.zeros((n, chunk), dtype=np.float64)
        new_states: list[OptimizerState] = [dict() for _ in range(n)]
        for d in range(n):
            for seg in windows[d]:
                new_vals, new_slot = optimizer.apply(
                    seg.name,
                    flat_params[seg.bucket_slice],
                    grad_shards[d][seg.local_slice].astype(np.float64),
                    sharded_state[d][seg.name],
                    step,
                    stats[seg.name],
                )
                new_block[d, seg.local_slice] = new_vals
                new_states[d][seg.name] = new_slot
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
        self.sharded_state: list[OptimizerState] | None = None
        self._bucket_states: list[list[OptimizerState]] | None = None

    def init(self, rng: np.random.Generator) -> None:
        super().init(rng)
        assert self.state is not None
        self._init_fused_shards(self.state)
        self.state = None  # slots only exist sharded from here on

    def _init_fused_shards(self, full_state: OptimizerState) -> None:
        """(Re)shard the replicated slots along the bucketed fused layout."""
        assert self.params is not None
        self._plan = BucketPlan(self.params, self.num_buckets, dtype=np.float64)
        self._bucket_states = [
            shard_state_segments(full_state, bucket, self.num_replicas)
            for bucket in self._plan.buckets
        ]
        # Back-compat alias: with one bucket this is the old fused layout.
        self.sharded_state = (
            self._bucket_states[0] if self._plan.num_buckets == 1 else None
        )

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        if self.params is None or self._bucket_states is None:
            raise RuntimeError("call init() before step()")
        t0 = _perf()
        tracer = _telemetry.tracer
        with tracer.span("train_step", category="step", actor="trainer"):
            with tracer.span("split", category="input", actor="trainer"):
                xs, ys = self._split(x, labels)
            t_split = _perf()
            losses = []
            grads = []
            n = self.num_replicas
            with tracer.span("forward_backward", category="compute", actor="trainer"):
                for xi, yi in zip(xs, ys):
                    loss_i, g_i = self.model.loss_and_grad(self.params, xi, yi)
                    losses.append(loss_i)
                    # Pre-scale so the reduce-scatter sum is the global mean.
                    grads.append({k: v / n for k, v in g_i.items()})
            t_fb = _perf()
            # The fused reduce-scatter -> sharded update -> all-gather; the
            # comm and update phases emit their own nested spans.
            launches: list[tuple[float, float]] = []
            with tracer.span("wus_update", category="update", actor="trainer"):
                assert self._plan is not None
                for i, bucket in enumerate(self._plan.buckets):
                    b0 = _perf()
                    # flatten() only reads the bucket's own names, so the
                    # full trees pass through unchanged.
                    new_params, self._bucket_states[i] = bucketed_sharded_update(
                        self.params,
                        grads,
                        self.optimizer,
                        self._bucket_states[i],
                        self.step_index,
                        bucket,
                        self.grad_dtype_policy,
                    )
                    self.params = {**self.params, **new_params}
                    launches.append(
                        (bucket.size * bucket.dtype.itemsize, _perf() - b0)
                    )
                if self._plan.num_buckets == 1:
                    self.sharded_state = self._bucket_states[0]
            t_update = _perf()
            self._last_launches = launches
            if self.overlap:
                # Each bucket's modeled occupancy is its whole pipeline stage
                # (reduce-scatter + sharded update + all-gather): that is
                # what serializes on the reduce network under WUS.
                with tracer.span("overlap_model", category="overlap", actor="trainer"):
                    self.last_overlap = self._model_overlap(t_fb - t_split)
        result = StepResult(
            float(np.mean(losses)),
            phase_seconds={
                "split": t_split - t0,
                "forward_backward": t_fb - t_split,
                "wus_update": t_update - t_fb,
            },
            bytes_moved=sum(nbytes for nbytes, _ in launches),
            step_index=self.step_index,
        )
        self.step_index += 1
        self._record_step(_perf() - t0, result)
        return result

    def save_checkpoint(self) -> TrainerCheckpoint:
        """Snapshot with the sharded optimizer state **reassembled**.

        The slots only exist sharded (that is WUS's memory saving), but a
        checkpoint must be shape-independent: each slot is gathered from
        its per-device shards into the full replicated tensor, so the
        snapshot can restore onto any replica count.  Reassembly is pure
        data movement — no arithmetic — so a same-shape round trip is
        bit-exact.
        """
        if self.params is None or self._bucket_states is None:
            raise RuntimeError("call init() before save_checkpoint()")
        assert self._plan is not None
        merged: OptimizerState = {}
        for bucket, states in zip(self._plan.buckets, self._bucket_states):
            merged.update(unshard_state_segments(states, bucket))
        # Buckets cover the tree in reverse order; restore template order.
        full = {name: merged[name] for name in self.params}
        ckpt = TrainerCheckpoint(
            step_index=self.step_index,
            params=_copy_params(self.params),
            opt_state=full,
            trainer=type(self).__name__,
        )
        record_checkpoint_metrics(ckpt, type(self).__name__)
        return ckpt

    def restore_checkpoint(self, ckpt: TrainerCheckpoint) -> None:
        """Restore by **resharding** the full state onto this trainer's mesh.

        GSPMD-style resharding in miniature: the checkpoint holds assembled
        tensors; the restore re-runs the same segment sharding that
        ``init`` performs, but over the checkpointed values and this
        trainer's (possibly different) ``num_replicas``.  A checkpoint
        taken on n devices therefore restores onto the n-1 survivors — or
        any other shape — with identical training semantics.
        """
        self.params = _copy_params(ckpt.params)
        self.step_index = ckpt.step_index
        self._init_fused_shards(_copy_state(ckpt.opt_state))
        self._last_launches = []
        self.last_overlap = None
        self.state = None  # slots only exist sharded, as after init()
