"""Synchronous data-parallel training on the functional virtual mesh.

Each replica computes gradients on its micro-batch; gradients are *actually*
summed with the ring or 2-D hierarchical collective from
:mod:`repro.runtime.collectives`; every replica then applies an identical
optimizer update.  The invariant (checked by the tests): with a loss that is
a mean over examples, data-parallel training is numerically equivalent to
single-device training on the concatenated batch, up to summation order.
"""

from __future__ import annotations

from time import perf_counter as _perf

import numpy as np

from repro import telemetry as _telemetry
from repro.core.overlap import OverlapResult, measured_overlap
from repro.core.trainer import CheckpointingTrainer, StepResult
from repro.models.mlp import MLP
from repro.optim.base import Optimizer
from repro.runtime.bucket import BucketPlan


class SingleDeviceTrainer(CheckpointingTrainer):
    """Reference trainer: full batch on one device."""

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        with self._step(x, labels) as run:
            with run.phase("update", "update"):
                self.params, self.state = self.optimizer.update(
                    self.params, run.grads[0], self.state, self.step_index
                )
        return run.result


class DataParallelTrainer(CheckpointingTrainer):
    """Data parallelism over a logical ``dp_x x dp_y`` replica mesh.

    The global batch is split evenly over replicas.  Gradient summation uses
    the 2-D hierarchical schedule when both mesh dims exceed 1 (mirroring
    the multipod), else a flat ring.  ``grad_dtype_policy`` selects the wire
    numeric format (``"bf16"`` reproduces the paper's low-precision gradient
    summation).

    ``num_buckets`` splits the fused gradient buffer into backprop-ordered
    buckets (one collective each); ``overlap=True`` additionally models the
    backprop-overlapped launch of those collectives (bucket ``i`` issued as
    soon as its last gradient is produced) and emits ``overlap_*``
    telemetry.  Overlap never changes the arithmetic: the collectives run
    with the same buffers in the same order either way, so overlap mode is
    bit-identical to eager mode at the same bucket count.
    """

    def __init__(
        self,
        model: MLP,
        optimizer: Optimizer,
        dp_x: int,
        dp_y: int = 1,
        grad_dtype_policy: str = "f64",
        guard: object | None = None,
        num_buckets: int = 1,
        overlap: bool = False,
    ) -> None:
        if dp_x < 1 or dp_y < 1:
            raise ValueError("replica mesh dims must be >= 1")
        if num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        super().__init__(model, optimizer)
        self.dp_x = dp_x
        self.dp_y = dp_y
        self.grad_dtype_policy = grad_dtype_policy
        #: Optional :class:`repro.controlplane.guard.ConsistencyGuard` (or
        #: anything with ``scan_tree``): the reduced mean gradients are
        #: scanned for NaN/Inf *after* the collective — the earliest point
        #: where one replica's non-finite value has poisoned all of them.
        self.guard = guard
        self.num_buckets = num_buckets
        self.overlap = overlap
        #: Bucket layout of the gradient tree; like the stacks below it
        #: depends only on the model and ``num_buckets``, so it outlives
        #: ``init()`` and restores (params and slots are replicated: a
        #: restore onto this mesh has nothing else to re-lay-out).
        self._plan: BucketPlan | None = None
        #: Persistent device-major gradient stacks, one per bucket index:
        #: the (n, bucket.size) block the replicas flatten into each step.
        self._grad_blocks: dict[int, np.ndarray] = {}

    @property
    def num_replicas(self) -> int:
        return self.dp_x * self.dp_y

    def _summed_mean_grads(self, per_replica_grads: list[dict]) -> dict:
        """Fused collectives over the bucketed gradient tensors.

        Each replica's gradients are packed into one contiguous buffer per
        bucket (layout cached across steps) and scaled by ``1/n`` so the
        collective yields the mean over the global batch; a ring or 2-D
        hierarchical all-reduce per bucket then moves the gradients, and
        the result is unpacked into zero-copy per-parameter views.  With
        the default single bucket this is exactly one collective for the
        whole model.  Per-bucket ``(payload_bytes, wall_seconds)`` launch
        records are appended to ``self._last_launches`` for the overlap model.
        """
        n = self.num_replicas
        if self._plan is None:
            self._plan = BucketPlan(per_replica_grads[0], self.num_buckets)
        mean: dict = {}
        for bi, bucket in enumerate(self._plan.buckets):
            t0 = _perf()
            block = self._grad_blocks.get(bi)
            if block is None or block.shape != (n, bucket.size):
                block = self._grad_blocks[bi] = np.empty(
                    (n, bucket.size), dtype=bucket.dtype
                )
            for i, g in enumerate(per_replica_grads):
                bucket.flatten(g, out=block[i])
            # Replicas contribute grad/n so the collective yields the mean
            # over the global batch (each replica loss is a micro-batch
            # mean).  One whole-stack scale — elementwise identical to the
            # old per-replica loop.
            block /= n
            reduced = bucket.all_reduce_stacked(
                block,
                self.grad_dtype_policy,
                grid_shape=(self.dp_x, self.dp_y)
                if self.dp_x > 1 and self.dp_y > 1
                else None,
            )
            # The replicated result's physical row is freshly owned by the
            # collective, so the optimizer may update through these views.
            mean.update(bucket.unflatten(reduced.block[0]))
            self._last_launches.append(
                (bucket.size * bucket.dtype.itemsize, _perf() - t0)
            )
        return mean

    def _model_overlap(self, fb_seconds: float) -> OverlapResult | None:
        """Model the backprop-overlapped timeline of the measured step.

        Bucket ready times come from the plan's cumulative element
        fractions laid along the measured backward window; collective
        occupancies are the measured per-bucket wall seconds.  Pure
        modeling — no gradients are touched.
        """
        plan, launches = self._plan, self._last_launches
        if plan is None or not launches or self.num_replicas == 1:
            return None
        result = measured_overlap(
            forward_backward_seconds=fb_seconds,
            bucket_ready_fractions=plan.ready_fractions,
            bucket_comm_s=[seconds for _, seconds in launches],
            bucket_bytes=[nbytes for nbytes, _ in launches],
        )
        if _telemetry.enabled:
            m = _telemetry.metrics
            trainer = type(self).__name__
            m.counter("overlap_steps", trainer=trainer).inc()
            m.counter("overlap_comm_seconds", trainer=trainer).inc(
                result.comm_seconds
            )
            m.counter("overlap_exposed_seconds", trainer=trainer).inc(
                result.exposed_comm_seconds
            )
            m.counter("overlap_hidden_seconds", trainer=trainer).inc(
                result.hidden_comm_seconds
            )
            m.gauge("overlap_efficiency", trainer=trainer).set(
                result.overlap_efficiency
            )
            m.gauge("overlap_buckets", trainer=trainer).set(result.num_buckets)
        return result

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        """One synchronous data-parallel step on the global batch.

        All-reduce, then the replicated update: the ``collective`` and
        ``update`` phases after the shared ``split``/``forward_backward``.
        """
        with self._step(x, labels) as run:
            with run.phase("collective", "comm"):
                mean_grads = self._summed_mean_grads(run.grads)
            if self.guard is not None:
                self.guard.scan_tree(
                    mean_grads, kind="gradient", step=self.step_index
                )
            with run.phase("update", "update"):
                self.params, self.state = self.optimizer.update(
                    self.params, mean_grads, self.state, self.step_index
                )
        return run.result
