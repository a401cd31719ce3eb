"""Synchronous data-parallel training on the functional virtual mesh.

Each replica computes gradients on its micro-batch; gradients are *actually*
summed with the ring or 2-D hierarchical collective from
:mod:`repro.runtime.collectives`; every replica then applies an identical
optimizer update.  The invariant (checked by the tests): with a loss that is
a mean over examples, data-parallel training is numerically equivalent to
single-device training on the concatenated batch, up to summation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter as _perf

import numpy as np

from repro import telemetry as _telemetry
from repro.core.overlap import OverlapResult, measured_overlap
from repro.core.trainer import StepResult
from repro.models.mlp import MLP
from repro.optim.base import Optimizer, OptimizerState, Params
from repro.resilience.checkpoint import TrainerCheckpoint, record_checkpoint_metrics
from repro.runtime.bucket import BucketPlan


def _copy_params(params: Params) -> Params:
    return {name: np.asarray(arr).copy() for name, arr in params.items()}


def _copy_state(state: OptimizerState) -> OptimizerState:
    return {
        name: {slot: np.asarray(arr).copy() for slot, arr in slots.items()}
        for name, slots in state.items()
    }


@dataclass
class TrainLog:
    """Per-step records from a training run."""

    losses: list[float]

    @property
    def last_loss(self) -> float:
        if not self.losses:
            raise ValueError("no steps recorded")
        return self.losses[-1]


class SingleDeviceTrainer:
    """Reference trainer: full batch on one device."""

    def __init__(self, model: MLP, optimizer: Optimizer) -> None:
        self.model = model
        self.optimizer = optimizer
        self.params: Params | None = None
        self.state: OptimizerState | None = None
        self.step_index = 0

    def init(self, rng: np.random.Generator) -> None:
        self.params = self.model.init_params(rng)
        self.state = self.optimizer.init_state(self.params)
        self.step_index = 0

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        if self.params is None or self.state is None:
            raise RuntimeError("call init() before step()")
        t0 = _perf()
        loss, grads = self.model.loss_and_grad(self.params, x, labels)
        t_fb = _perf()
        self.params, self.state = self.optimizer.update(
            self.params, dict(grads), self.state, self.step_index
        )
        t_up = _perf()
        result = StepResult(
            loss,
            phase_seconds={
                "forward_backward": t_fb - t0, "update": t_up - t_fb,
            },
            step_index=self.step_index,
        )
        self.step_index += 1
        return result

    def train(self, batches, steps: int) -> TrainLog:
        losses = []
        for _ in range(steps):
            x, labels = next(batches)
            losses.append(self.step(x, labels))
        return TrainLog(losses)

    def save_checkpoint(self) -> TrainerCheckpoint:
        """Snapshot params + optimizer state (deep copies) at this step."""
        if self.params is None or self.state is None:
            raise RuntimeError("call init() before save_checkpoint()")
        ckpt = TrainerCheckpoint(
            step_index=self.step_index,
            params=_copy_params(self.params),
            opt_state=_copy_state(self.state),
            trainer=type(self).__name__,
        )
        record_checkpoint_metrics(ckpt, type(self).__name__)
        return ckpt

    def restore_checkpoint(self, ckpt: TrainerCheckpoint) -> None:
        """Resume from a snapshot; bit-identical to never interrupting."""
        self.params = _copy_params(ckpt.params)
        self.state = _copy_state(ckpt.opt_state)
        self.step_index = ckpt.step_index


class DataParallelTrainer:
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
        self.model = model
        self.optimizer = optimizer
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
        self.params: Params | None = None
        self.state: OptimizerState | None = None
        self.step_index = 0
        self._plan: BucketPlan | None = None
        #: Persistent device-major gradient stacks, one per bucket index:
        #: the (n, bucket.size) block the replicas flatten into each step.
        self._grad_blocks: dict[int, np.ndarray] = {}
        self._last_launches: list[tuple[float, float]] = []
        #: Overlap timeline of the most recent step (``overlap=True`` only).
        self.last_overlap: OverlapResult | None = None

    @property
    def num_replicas(self) -> int:
        return self.dp_x * self.dp_y

    def init(self, rng: np.random.Generator) -> None:
        # All replicas start from identical weights (broadcast at setup).
        self.params = self.model.init_params(rng)
        self.state = self.optimizer.init_state(self.params)
        self.step_index = 0
        self._plan = None
        self._grad_blocks = {}
        self.last_overlap = None

    def _collective_plan(self, template: dict) -> BucketPlan:
        """The (cached) bucket partition for this model's gradient tree."""
        if self._plan is None:
            self._plan = BucketPlan(template, self.num_buckets)
        return self._plan

    def _split(self, x: np.ndarray, labels: np.ndarray):
        n = self.num_replicas
        if x.shape[0] % n != 0:
            raise ValueError(
                f"global batch {x.shape[0]} not divisible by {n} replicas"
            )
        return np.split(x, n), np.split(labels, n)

    def _summed_mean_grads(self, per_replica_grads: list[dict]) -> dict:
        """Fused collectives over the bucketed gradient tensors.

        Each replica's gradients are packed into one contiguous buffer per
        bucket (layout cached across steps) and scaled by ``1/n`` so the
        collective yields the mean over the global batch; a ring or 2-D
        hierarchical all-reduce per bucket then moves the gradients, and
        the result is unpacked into zero-copy per-parameter views.  With
        the default single bucket this is exactly one collective for the
        whole model.  Per-bucket ``(payload_bytes, wall_seconds)`` launch
        records land in ``self._last_launches`` for the overlap model.
        """
        n = self.num_replicas
        plan = self._collective_plan(per_replica_grads[0])
        mean: dict = {}
        launches: list[tuple[float, float]] = []
        for bi, bucket in enumerate(plan.buckets):
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
            launches.append(
                (bucket.size * bucket.dtype.itemsize, _perf() - t0)
            )
        self._last_launches = launches
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

        Telemetry: the step emits a ``train_step`` span (category
        ``"step"``) enclosing the four phase spans of the paper's step
        breakdown — ``split``/``forward_backward``/``collective``/
        ``update`` — plus a ``step_seconds`` histogram labeled by trainer.
        With ``overlap=True`` the backprop-overlapped timeline of the same
        step is modeled (``overlap_model`` span, ``overlap_*`` counters)
        without changing any arithmetic.
        """
        if self.params is None or self.state is None:
            raise RuntimeError("call init() before step()")
        t0 = _perf()
        tracer = _telemetry.tracer
        with tracer.span("train_step", category="step", actor="trainer"):
            with tracer.span("split", category="input", actor="trainer"):
                xs, ys = self._split(x, labels)
            t_split = _perf()
            losses = []
            grads = []
            with tracer.span("forward_backward", category="compute", actor="trainer"):
                for xi, yi in zip(xs, ys):
                    loss_i, g_i = self.model.loss_and_grad(self.params, xi, yi)
                    losses.append(loss_i)
                    grads.append(dict(g_i))
            t_fb = _perf()
            with tracer.span("collective", category="comm", actor="trainer"):
                mean_grads = self._summed_mean_grads(grads)
            t_comm = _perf()
            if self.guard is not None:
                self.guard.scan_tree(
                    mean_grads, kind="gradient", step=self.step_index
                )
            with tracer.span("update", category="update", actor="trainer"):
                self.params, self.state = self.optimizer.update(
                    self.params, mean_grads, self.state, self.step_index
                )
            t_update = _perf()
            if self.overlap:
                with tracer.span("overlap_model", category="overlap", actor="trainer"):
                    self.last_overlap = self._model_overlap(t_fb - t_split)
        result = StepResult(
            float(np.mean(losses)),
            phase_seconds={
                "split": t_split - t0,
                "forward_backward": t_fb - t_split,
                "collective": t_comm - t_fb,
                "update": t_update - t_comm,
            },
            bytes_moved=sum(nbytes for nbytes, _ in self._last_launches),
            step_index=self.step_index,
        )
        self.step_index += 1
        self._record_step(_perf() - t0, result)
        return result

    def _record_step(self, seconds: float, result: StepResult | None = None) -> None:
        if not _telemetry.enabled:
            return
        m = _telemetry.metrics
        trainer = type(self).__name__
        m.histogram("step_seconds", trainer=trainer).observe(seconds)
        m.counter("train_steps", trainer=trainer).inc()
        if result is not None:
            for phase, phase_seconds in result.phase_seconds.items():
                m.counter(
                    "step_phase_seconds", trainer=trainer, phase=phase
                ).inc(phase_seconds)
            _telemetry.flight_recorder.on_step(result, trainer=trainer)

    def train(self, batches, steps: int) -> TrainLog:
        losses = []
        for _ in range(steps):
            x, labels = next(batches)
            losses.append(self.step(x, labels))
        return TrainLog(losses)

    def save_checkpoint(self) -> TrainerCheckpoint:
        """Snapshot the replicated params + optimizer state (deep copies)."""
        if self.params is None or self.state is None:
            raise RuntimeError("call init() before save_checkpoint()")
        ckpt = TrainerCheckpoint(
            step_index=self.step_index,
            params=_copy_params(self.params),
            opt_state=_copy_state(self.state),
            trainer=type(self).__name__,
        )
        record_checkpoint_metrics(ckpt, type(self).__name__)
        return ckpt

    def restore_checkpoint(self, ckpt: TrainerCheckpoint) -> None:
        """Resume from a snapshot, on this trainer's replica mesh.

        The restoring trainer's ``dp_x x dp_y`` may differ from the
        producer's (elastic restore onto the surviving mesh): params and
        optimizer state are replicated, so only the gradient-bucket layout
        cache needs resetting.  Resuming is bit-identical to an
        uninterrupted run *of this mesh shape* fed the same data.
        """
        self.params = _copy_params(ckpt.params)
        self.state = _copy_state(ckpt.opt_state)
        self.step_index = ckpt.step_index
        self._plan = None
        self._last_launches = []
