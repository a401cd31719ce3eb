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
from repro.core.trainer import (
    CheckpointingTrainer,
    StepResult,
    _checked_grad_dtype_policy,
)
from repro.models.mlp import MLP
from repro.optim.base import Optimizer
from repro.refuse import count
from repro.runtime.bucket import BucketPlan
from repro.runtime.collectives import TwoPhaseAllReduce


def _divide_in_place(block: np.ndarray, n: int) -> None:
    """``block /= n``, as a multiply by ``1 / n`` when ``n`` is a power of two.

    ``1 / n`` is then exact, so ``g * (1 / n)`` is the real number ``g / n``
    rounded once: the same bits for every input (signed zeros,
    subnormals, ±inf, NaN payloads), at about half the cost of a division.
    """
    if n & (n - 1):
        block /= n
    else:
        block *= 1.0 / n


class SingleDeviceTrainer(CheckpointingTrainer):
    """Reference trainer: full batch on one device."""

    def _forward_backward(self, xs: np.ndarray, labels: np.ndarray):
        """The stacked call with one replica; its one gradient tree."""
        losses, grads = self.model.loss_and_grad(self.params, xs, labels)
        return losses, {name: g[0] for name, g in grads.items()}

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        with self._step(x, labels) as run:
            with run.phase("update", "update"):
                self.params, self.state = self.optimizer.update(
                    self.params, run.grads, self.state, self.step_index
                )
        return run.result


class DataParallelTrainer(CheckpointingTrainer):
    """Data parallelism over a logical ``dp_x x dp_y`` replica mesh.

    The global batch is split evenly over replicas.  Gradient summation uses
    the 2-D hierarchical schedule when both mesh dims exceed 1 (mirroring
    the multipod), else a flat ring.  ``grad_dtype_policy`` selects the wire
    numeric format (``"bf16"`` reproduces the paper's low-precision gradient
    summation).  On a 2-D mesh the step holds one mesh column of gradients
    at a time: each column's backward feeds its Y-phase rings at once, and
    the X phase and gather run after the last column.

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
        count("dp_x", dp_x)
        count("dp_y", dp_y)
        count("num_buckets", num_buckets)
        super().__init__(model, optimizer)
        self.dp_x = dp_x
        self.dp_y = dp_y
        self.grad_dtype_policy = _checked_grad_dtype_policy(grad_dtype_policy)
        #: Optional :class:`repro.controlplane.guard.ConsistencyGuard` (or
        #: anything with ``scan_tree``): the reduced mean gradients are
        #: scanned for NaN/Inf *after* the collective — the earliest point
        #: where one replica's non-finite value has poisoned all of them.
        self.guard = guard
        self.num_buckets = num_buckets
        self.overlap = overlap
        #: The overlap model's counter series, labeled by trainer class.
        trainer = type(self).__name__
        self._overlap_series = tuple(
            _telemetry.series(name, trainer=trainer)
            for name in (
                "overlap_steps", "overlap_comm_seconds", "overlap_exposed_seconds",
                "overlap_hidden_seconds",
            )
        )
        #: Bucket layout of the gradient tree; like the blocks below it
        #: depends only on the model and ``num_buckets``, so it outlives
        #: ``init()`` and restores (params and slots are replicated: a
        #: restore onto this mesh has nothing else to re-lay-out).
        self._plan: BucketPlan | None = None
        #: The 2-D schedule's ``(x, y)`` when both mesh dims exceed 1 (the
        #: step then streams mesh columns), else ``None`` (one flat ring).
        self._grid = (dp_x, dp_y) if dp_x > 1 and dp_y > 1 else None
        #: Persistent device-major gradient blocks, one ``(rows,
        #: bucket.size)`` stack per bucket of ``_blocks_plan`` — one mesh
        #: column's ``dp_y`` replicas under ``_grid``, else all ``n`` — and
        #: the ``(rows, *shape)`` view of each tensor that the model writes
        #: its gradients through.
        self._grad_blocks: list[np.ndarray] = []
        self._grad_views: dict[str, np.ndarray] = {}
        self._blocks_plan: BucketPlan | None = None
        #: Per bucket, the wall seconds its Y phase took inside this step's
        #: ``forward_backward`` (streamed steps only); its launch record
        #: adds them to the X phase and gather.
        self._column_seconds: list[float] = []

    @property
    def num_replicas(self) -> int:
        return self.dp_x * self.dp_y

    def _gradient_views(self) -> dict[str, np.ndarray]:
        """The ``(n, *shape)`` gradient views, laid out for the current plan.

        The data-parallel plan follows the gradient tree's order (the
        backward's, :attr:`MLP.grad_names`); the layout decides which ring
        chunk each element travels in, so that order is part of the
        numerics.  Blocks are re-laid-out only when the plan changes.
        """
        if self._plan is None:
            self._plan = BucketPlan(
                {name: self.params[name] for name in self.model.grad_names},
                self.num_buckets,
            )
        if self._blocks_plan is not self._plan:
            rows = self.dp_y if self._grid else self.num_replicas
            # The gradients' own dtype, not the plan's (WUS lays its plan
            # out in f64): the block's ``/ n`` then rounds as each ``g / n`` did.
            dtype = np.result_type(*(p.dtype for p in self.params.values()))
            self._grad_blocks = [
                np.empty((rows, bucket.size), dtype=dtype)
                for bucket in self._plan.buckets
            ]
            self._grad_views = {}
            for bucket, block in zip(self._plan.buckets, self._grad_blocks):
                self._grad_views.update(bucket.stacked_views(block))
            self._blocks_plan = self._plan
        return self._grad_views

    def _forward_backward(self, xs: np.ndarray, labels: np.ndarray):
        """Stacked calls write the replicas' gradients into the blocks.

        Replicas contribute grad/n, so the collective yields the mean over
        the global batch (each replica loss is a micro-batch mean): one
        whole-block scale, elementwise identical to a per-replica ``g / n``.

        On a 2-D mesh the stack runs one mesh column at a time (devices
        are x-major, so column ``x`` is rows ``x*dp_y … (x+1)*dp_y - 1``),
        and each scaled column goes straight into every bucket's Y-phase
        rings while it is still in cache; the gradients handed on are the
        buckets' in-flight :class:`TwoPhaseAllReduce`.  Every row keeps the
        bits of its per-slice GEMM, and each Y ring reads only its own
        column, in the same order, so the step is bit-identical to one
        stacked call feeding whole-block collectives.
        """
        views = self._gradient_views()
        n = self.num_replicas
        if self._grid is None:
            losses, _ = self.model.loss_and_grad(self.params, xs, labels, out=views)
            for block in self._grad_blocks:
                _divide_in_place(block, n)
            return losses, self._grad_blocks
        reductions = [
            TwoPhaseAllReduce(self._grid, (bucket.size,), self.grad_dtype_policy)
            for bucket in self._plan.buckets
        ]
        seconds = self._column_seconds = [0.0] * len(reductions)
        losses = np.empty(n)
        y = self.dp_y
        for x in range(self.dp_x):
            rows = slice(x * y, (x + 1) * y)
            losses[rows], _ = self.model.loss_and_grad(
                self.params, xs[rows], labels[rows], out=views
            )
            for i, (block, reduction) in enumerate(zip(self._grad_blocks, reductions)):
                _divide_in_place(block, n)
                t0 = _perf()
                reduction.reduce_columns(block, x)
                seconds[i] += _perf() - t0
        return losses, reductions

    def _summed_mean_grads(self, grads: list) -> dict:
        """Fused collectives over the bucketed gradients.

        A ring all-reduce per bucket block, or the rest of each bucket's
        streamed 2-D all-reduce (X phase and gather), sums the replicas'
        pre-scaled gradients, and the result is unpacked into zero-copy
        per-parameter views.  With the default single bucket this is
        exactly one collective for the whole model.  Per-bucket
        ``(payload_bytes, wall_seconds)`` launch records, the Y phase
        included, are appended to ``self._last_launches`` for the overlap
        model.
        """
        mean: dict = {}
        for i, (bucket, grad) in enumerate(zip(self._plan.buckets, grads)):
            t0 = _perf()
            if self._grid is None:
                reduced = bucket.all_reduce_stacked(grad, self.grad_dtype_policy)
                seconds = 0.0
            else:
                reduced = grad.all_reduce()
                seconds = self._column_seconds[i]
            # The replicated result's physical row is freshly owned by the
            # collective, so the optimizer may update through these views.
            mean.update(bucket.unflatten(reduced.block[0]))
            self._last_launches.append(
                (bucket.size * bucket.dtype.itemsize, seconds + _perf() - t0)
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
            _telemetry.tally_all(self._overlap_series, (
                1, result.comm_seconds, result.exposed_comm_seconds,
                result.hidden_comm_seconds,
            ))
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
