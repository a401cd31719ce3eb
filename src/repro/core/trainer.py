"""Unified trainer construction and step results.

One way to build and drive every functional trainer:

* :class:`TrainerConfig` — declarative description of a training setup
  (model, optimizer, strategy, replica mesh, bucket/overlap options);
* :func:`make_trainer` — factory dispatching to
  :class:`~repro.core.data_parallel.SingleDeviceTrainer` /
  :class:`~repro.core.data_parallel.DataParallelTrainer` /
  :class:`~repro.core.weight_update_sharding.WeightUpdateShardedTrainer` /
  :class:`~repro.core.model_parallel.HybridParallelTrainer`;
* :class:`Trainer` — the protocol every trainer satisfies
  (``init`` / ``step`` / ``train``);
* :class:`BaseTrainer` / :class:`CheckpointingTrainer` — the one training
  step (and the one checkpoint body) the four strategies share;
* :class:`StepResult` — the single step return type: a ``float`` subclass
  (so ``losses.append(trainer.step(...))`` keeps working everywhere the
  loss used to be a bare float) carrying per-phase seconds and bytes
  moved, consumed by telemetry and the chaos harness.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, replace
from time import perf_counter as _perf
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

from repro import telemetry as _telemetry
from repro.optim.base import OptimizerState, Params
from repro.resilience.checkpoint import TrainerCheckpoint, record_checkpoint_metrics
from repro.runtime.collectives import DTYPE_POLICIES

#: Strategies :func:`make_trainer` understands.
STRATEGIES = ("single", "data_parallel", "wus", "hybrid")

#: Strategies whose trainers expose ``save_checkpoint``/``restore_checkpoint``
#: (what the chaos harness and the cluster scheduler recover through).
CHECKPOINTING_STRATEGIES = ("single", "data_parallel", "wus")


class StepResult(float):
    """Loss of one step, with its timing and traffic accounting attached.

    Subclasses ``float`` (the value *is* the loss) so existing call sites
    that treat ``trainer.step(...)`` as a number — appending to loss
    lists, formatting, comparing — are untouched.  ``phase_seconds`` maps
    phase name (``split`` / ``forward_backward`` / ``collective`` /
    ``update`` ...) to measured wall seconds; ``bytes_moved`` is the fused
    per-replica payload handed to the step's gradient collectives.
    """

    __slots__ = ("phase_seconds", "bytes_moved", "step_index")

    phase_seconds: dict[str, float]
    bytes_moved: float
    step_index: int

    def __new__(
        cls,
        loss: float,
        phase_seconds: Mapping[str, float] | None = None,
        bytes_moved: float = 0.0,
        step_index: int = 0,
    ) -> "StepResult":
        obj = super().__new__(cls, loss)
        obj.phase_seconds = dict(phase_seconds or {})
        obj.bytes_moved = float(bytes_moved)
        obj.step_index = int(step_index)
        return obj

    @property
    def loss(self) -> float:
        return float(self)

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StepResult(loss={float(self)!r}, step_index={self.step_index}, "
            f"phases={sorted(self.phase_seconds)})"
        )


@runtime_checkable
class Trainer(Protocol):
    """What every functional trainer exposes."""

    step_index: int

    def init(self, rng: np.random.Generator) -> None: ...

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult: ...

    def train(self, batches, steps: int) -> Any: ...


@dataclass(frozen=True)
class TrainerConfig:
    """Declarative trainer setup for :func:`make_trainer`.

    ``mesh_shape`` is the logical ``(x, y)`` replica grid; its product is
    the replica count (``wus``/``hybrid`` flatten it).  ``num_buckets``
    and ``overlap`` select the bucketed-overlap execution mode of the
    data-parallel trainers — overlap only changes the modeled timeline and
    telemetry, never the arithmetic.  ``seed`` makes the factory return an
    *initialized* trainer (what the chaos harness requires).
    """

    model: Any
    optimizer: Any
    strategy: str = "data_parallel"
    mesh_shape: tuple[int, int] = (1, 1)
    grad_dtype_policy: str = "f64"
    num_buckets: int = 1
    overlap: bool = False
    mp_size: int = 1
    guard: Any = None
    seed: int | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"unknown strategy {self.strategy!r}; choose from {STRATEGIES}"
            )
        x, y = self.mesh_shape
        if x < 1 or y < 1:
            raise ValueError("mesh_shape dims must be >= 1")
        if self.num_buckets < 1:
            raise ValueError("num_buckets must be >= 1")
        if self.mp_size < 1:
            raise ValueError("mp_size must be >= 1")
        if self.strategy == "single" and self.num_replicas != 1:
            raise ValueError("strategy 'single' requires a 1x1 mesh_shape")
        if (self.overlap or self.num_buckets > 1) and self.strategy not in (
            "data_parallel", "wus"
        ):
            raise ValueError(
                "bucketed overlap is only supported by the 'data_parallel' "
                "and 'wus' strategies"
            )
        # A field the strategy's trainer would silently drop is an error.
        if self.guard is not None and self.strategy != "data_parallel":
            raise ValueError(
                "guard is only honoured by the 'data_parallel' strategy "
                f"(got strategy {self.strategy!r})"
            )
        if self.mp_size > 1 and self.strategy != "hybrid":
            raise ValueError(
                "mp_size > 1 is only honoured by the 'hybrid' strategy "
                f"(got strategy {self.strategy!r})"
            )
        if self.grad_dtype_policy not in DTYPE_POLICIES:
            raise ValueError(
                f"unknown grad_dtype_policy {self.grad_dtype_policy!r}; "
                f"choose from {DTYPE_POLICIES}"
            )

    @property
    def num_replicas(self) -> int:
        return self.mesh_shape[0] * self.mesh_shape[1]

    def require_checkpointing(self) -> None:
        """Reject a strategy whose trainer cannot save/restore checkpoints."""
        if self.strategy not in CHECKPOINTING_STRATEGIES:
            raise ValueError(
                f"strategy {self.strategy!r} cannot checkpoint; recovery needs "
                f"one of {CHECKPOINTING_STRATEGIES}"
            )

    def with_(self, **changes) -> "TrainerConfig":
        """A modified copy (sweep/chaos helper)."""
        return replace(self, **changes)


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


class _StepRun:
    """One step in flight: what :meth:`BaseTrainer._step` hands a strategy."""

    def __init__(self) -> None:
        self.losses: list[float] = []
        #: One entry per replica, as the strategy's ``_loss_and_grad`` made it.
        self.grads: list = []
        self.phase_seconds: dict[str, float] = {}
        self.result: StepResult | None = None
        self.start = self._mark = _perf()

    @contextmanager
    def phase(self, name: str, category: str):
        """Run one phase under its span *and* record ``phase_seconds[name]``.

        One name feeds both, so span names and phase keys cannot drift.
        Each phase is timed from the end of the previous one, so the
        phases add up to the step.
        """
        with _telemetry.tracer.span(name, category=category, actor="trainer"):
            yield
        now = _perf()
        self.phase_seconds[name] = now - self._mark
        self._mark = now


class BaseTrainer(ABC):
    """The training step, stated once for every strategy.

    A parallelisation strategy changes *how the update executes*, never
    the step around it (Section 3.2).  :meth:`_step` is that step; a
    strategy supplies only what differs: ``_ready``, its per-replica
    ``_loss_and_grad``, and — as the body of its ``step`` — its gradient
    exchange + update.  Every strategy class defines ``step`` itself
    rather than inheriting it, so that outside-in tracers, which wrap the
    method found in each class's own ``__dict__``, see one per strategy.
    """

    #: Replicas the global batch is split over.
    num_replicas: int = 1

    def __init__(self, model: Any, optimizer: Any) -> None:
        self.model = model
        self.optimizer = optimizer
        self.step_index = 0
        #: ``True`` models the step's collectives launching behind the
        #: backward pass (``_model_overlap`` of the data-parallel trainers).
        self.overlap = False
        #: Overlap timeline of the most recent step (``overlap=True`` only).
        self.last_overlap: Any = None
        #: ``(payload_bytes, wall_seconds)`` per gradient collective the
        #: strategy launched this step; the payloads sum to ``bytes_moved``.
        self._last_launches: list[tuple[float, float]] = []

    @property
    @abstractmethod
    def _ready(self) -> bool:
        """Whether ``init()`` (or a restore) has installed training state."""

    @abstractmethod
    def _loss_and_grad(self, x: np.ndarray, labels: np.ndarray) -> tuple[float, Any]:
        """One replica's loss and gradients on its micro-batch."""

    def _split(self, x: np.ndarray, labels: np.ndarray):
        n = self.num_replicas
        if x.shape[0] % n != 0:
            raise ValueError(
                f"global batch {x.shape[0]} not divisible by {n} replicas"
            )
        return np.split(x, n), np.split(labels, n)

    @contextmanager
    def _step(self, x: np.ndarray, labels: np.ndarray):
        """The step around a strategy's gradient exchange + update.

        Yields the :class:`_StepRun` once the ``split`` and
        ``forward_backward`` phases have run; the ``with`` body runs the
        strategy's phases through ``run.phase``; on exit ``run.result``
        holds the finished :class:`StepResult`.

        Telemetry: one ``train_step`` span (category ``"step"``) encloses
        the phase spans of the paper's step breakdown, named exactly as
        ``StepResult.phase_seconds``.  With ``overlap`` the
        backprop-overlapped timeline of the same step is modeled
        (``overlap_model`` span, ``overlap_*`` counters) without changing
        any arithmetic.
        """
        if not self._ready:
            raise RuntimeError("call init() before step()")
        run = _StepRun()
        self._last_launches = []
        tracer = _telemetry.tracer
        with tracer.span("train_step", category="step", actor="trainer"):
            with run.phase("split", "input"):
                xs, ys = self._split(x, labels)
            with run.phase("forward_backward", "compute"):
                for xi, yi in zip(xs, ys):
                    loss_i, grads_i = self._loss_and_grad(xi, yi)
                    run.losses.append(loss_i)
                    run.grads.append(grads_i)
            yield run
            if self.overlap:
                with tracer.span("overlap_model", category="overlap", actor="trainer"):
                    self.last_overlap = self._model_overlap(
                        run.phase_seconds["forward_backward"]
                    )
        run.result = StepResult(
            float(np.mean(run.losses)),
            phase_seconds=run.phase_seconds,
            bytes_moved=sum(nbytes for nbytes, _ in self._last_launches),
            step_index=self.step_index,
        )
        self.step_index += 1
        self._record_step(_perf() - run.start, run.result)

    def _record_step(self, seconds: float, result: StepResult) -> None:
        """Step telemetry, labeled by trainer class, plus the flight record."""
        if not _telemetry.enabled:
            return
        m = _telemetry.metrics
        trainer = type(self).__name__
        m.histogram("step_seconds", trainer=trainer).observe(seconds)
        m.counter("train_steps", trainer=trainer).inc()
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


class CheckpointingTrainer(BaseTrainer):
    """A trainer whose full state assembles into ``(params, opt_state)``.

    Weights are replicated; optimizer slots are replicated too (``state``)
    or, under weight-update sharding, exist only as shards — which is all
    ``_full_state`` / ``_load_state`` abstract.  The assembled form is
    mesh-independent, so the one checkpoint body below restores onto any
    replica count (the :data:`CHECKPOINTING_STRATEGIES`).
    """

    def __init__(self, model: Any, optimizer: Any) -> None:
        super().__init__(model, optimizer)
        self.params: Params | None = None
        self.state: OptimizerState | None = None

    @property
    def _ready(self) -> bool:
        return self.params is not None

    def init(self, rng: np.random.Generator) -> None:
        # All replicas start from identical weights (broadcast at setup).
        params = self.model.init_params(rng)
        self._install(params, self.optimizer.init_state(params), 0)

    def _install(
        self, params: Params, full_state: OptimizerState, step_index: int
    ) -> None:
        """Adopt a full training state, dropping what a past step derived."""
        self.params = params
        self.step_index = step_index
        self._last_launches = []
        self.last_overlap = None
        self._load_state(full_state)

    def _load_state(self, full_state: OptimizerState) -> None:
        """Keep the assembled optimizer slots (owned) in this strategy's form."""
        self.state = full_state

    def _full_state(self) -> OptimizerState:
        """The assembled optimizer slots, as copies a checkpoint may keep."""
        return _copy_state(self.state)

    def _loss_and_grad(self, x: np.ndarray, labels: np.ndarray):
        loss, grads = self.model.loss_and_grad(self.params, x, labels)
        return loss, dict(grads)

    def save_checkpoint(self) -> TrainerCheckpoint:
        """Snapshot params + assembled optimizer state (deep copies)."""
        if not self._ready:
            raise RuntimeError("call init() before save_checkpoint()")
        trainer = type(self).__name__
        ckpt = TrainerCheckpoint(
            step_index=self.step_index,
            params=_copy_params(self.params),
            opt_state=self._full_state(),
            trainer=trainer,
        )
        record_checkpoint_metrics(ckpt, trainer)
        return ckpt

    def restore_checkpoint(self, ckpt: TrainerCheckpoint) -> None:
        """Resume from a snapshot, on this trainer's replica mesh.

        The mesh may differ from the producer's (elastic restore onto the
        survivors).  Resuming is bit-identical to an uninterrupted run *of
        this mesh shape* fed the same data.
        """
        self._install(
            _copy_params(ckpt.params), _copy_state(ckpt.opt_state), ckpt.step_index
        )


def make_trainer(config: TrainerConfig) -> Trainer:
    """Build (and, with ``seed``, initialize) the trainer a config describes."""
    # Imports are deferred: the trainer modules import StepResult from here.
    from repro.core.data_parallel import DataParallelTrainer, SingleDeviceTrainer
    from repro.core.model_parallel import HybridParallelTrainer
    from repro.core.weight_update_sharding import WeightUpdateShardedTrainer

    if config.strategy == "single":
        trainer: Trainer = SingleDeviceTrainer(config.model, config.optimizer)
    elif config.strategy == "data_parallel":
        trainer = DataParallelTrainer(
            config.model,
            config.optimizer,
            dp_x=config.mesh_shape[0],
            dp_y=config.mesh_shape[1],
            grad_dtype_policy=config.grad_dtype_policy,
            guard=config.guard,
            num_buckets=config.num_buckets,
            overlap=config.overlap,
        )
    elif config.strategy == "wus":
        trainer = WeightUpdateShardedTrainer(
            config.model,
            config.optimizer,
            num_replicas=config.num_replicas,
            grad_dtype_policy=config.grad_dtype_policy,
            num_buckets=config.num_buckets,
            overlap=config.overlap,
        )
    else:  # hybrid
        trainer = HybridParallelTrainer(
            config.model,
            config.optimizer,
            dp_size=config.num_replicas,
            mp_size=config.mp_size,
            grad_dtype_policy=config.grad_dtype_policy,
        )
    if config.seed is not None:
        trainer.init(np.random.default_rng(config.seed))
    return trainer
