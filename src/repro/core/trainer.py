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
from dataclasses import dataclass, replace
from functools import cache
from time import perf_counter as _perf
from typing import Any, Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro import telemetry as _telemetry
from repro.optim.base import OptimizerState, Params
from repro.refuse import count
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


def _checked_grad_dtype_policy(policy: str) -> str:
    """The policy, or ``ValueError`` naming the field: refused at
    construction, not mid-backward in the first step's collective."""
    if policy not in DTYPE_POLICIES:
        raise ValueError(
            f"unknown grad_dtype_policy {policy!r}; choose from {DTYPE_POLICIES}"
        )
    return policy


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
        count("mesh_shape", x)
        count("mesh_shape", y)
        count("num_buckets", self.num_buckets)
        count("mp_size", self.mp_size)
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
        _checked_grad_dtype_policy(self.grad_dtype_policy)

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

    __slots__ = (
        "losses", "grads", "phase_seconds", "result", "start", "record", "_mark",
        "_phase",
    )

    def __init__(self, record: Any) -> None:
        #: Every replica's loss, as the strategy's ``_forward_backward`` made them.
        self.losses: Sequence[float] = ()
        #: The step's gradients in the strategy's own form: a tree, one tree
        #: per replica, or the gradient blocks the model wrote into.
        self.grads: Any = None
        self.phase_seconds: dict[str, float] = {}
        self.result: StepResult | None = None
        #: The step's :class:`~repro.telemetry.StepRecord`.
        self.record = record
        self.start = self._mark = _perf()
        self._phase = ("", "")

    def phase(self, name: str, category: str) -> "_StepRun":
        """Run one phase under its span *and* record ``phase_seconds[name]``.

        One name feeds both, so span names and phase keys cannot drift.
        Each phase is timed from the end of the previous one, so the
        phases add up to the step; its span is cut from the same two clock
        marks (one reading per boundary, no open-span bookkeeping), which
        join the step record's marks as the process tracer's ``emit`` would
        add them.  Phases run one after another, never nested.
        """
        self._phase = (name, category)
        return self

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> None:
        now = _perf()
        name, category = self._phase
        if _telemetry.enabled:
            self.record.marks.append((name, category, "trainer", self._mark, now))
        self.phase_seconds[name] = now - self._mark
        self._mark = now


class _Step:
    """The context :meth:`BaseTrainer._step` returns: one step, stated once.

    Entering enters the step's :class:`~repro.telemetry.StepRecord` and
    runs the checks and the ``split`` and ``forward_backward`` phases;
    leaving ends the step's clock, hands its spans to the tracer and,
    unless the step raised, builds its result and records it.  A step that
    raised writes what its sites counted, but no step of its own.  A class
    rather than a generator-based context manager, since it runs on every
    step of every trainer.
    """

    __slots__ = ("trainer", "x", "labels", "run", "record")

    def __init__(self, trainer: "BaseTrainer", x: np.ndarray, labels: np.ndarray) -> None:
        self.trainer = trainer
        self.x = x
        self.labels = labels

    def __enter__(self) -> _StepRun:
        trainer = self.trainer
        if not trainer._ready:
            raise RuntimeError("call init() before step()")
        x, labels = np.asarray(self.x), np.asarray(self.labels)
        if labels.shape != x.shape[:1]:
            raise ValueError(
                f"labels shape {labels.shape} does not match a batch of "
                f"{x.shape[0]} rows"
            )
        self.record = _telemetry.StepRecord(trainer._step_slots).__enter__()
        run = self.run = _StepRun(self.record)
        trainer._last_launches = []
        try:
            with run.phase("split", "input"):
                xs, ys = trainer._split(x, labels)
            with run.phase("forward_backward", "compute"):
                run.losses, run.grads = trainer._forward_backward(xs, ys)
        except BaseException:
            self._close(raised=True)
            raise
        return run

    def _close(self, raised: bool) -> float:
        """End the step's clock and hand its spans (and, if it raised, its
        sites' counts) on."""
        end = _perf()
        tracer = _telemetry.tracer
        record = self.record
        try:
            if _telemetry.enabled:
                record.marks.append(("train_step", "step", "trainer", self.run.start, end))
        finally:
            record.__exit__()
            if raised:
                record.flush()
            elif record.marks:
                tracer.emit_all(record.marks)
        return end

    def __exit__(self, exc_type, exc, tb) -> None:
        trainer, run = self.trainer, self.run
        try:
            if exc_type is None and trainer.overlap:
                with _telemetry.tracer.span(
                    "overlap_model", category="overlap", actor="trainer"
                ):
                    trainer.last_overlap = trainer._model_overlap(
                        run.phase_seconds["forward_backward"]
                    )
        finally:
            end = self._close(raised=exc_type is not None)
        if exc_type is not None:
            return
        losses = np.asarray(run.losses)
        run.result = StepResult(
            # np.mean's own arithmetic (one add.reduce, one division),
            # without its dispatch.
            float(np.add.reduce(losses)) / losses.size,
            phase_seconds=run.phase_seconds,
            bytes_moved=sum(nbytes for nbytes, _ in trainer._last_launches),
            step_index=trainer.step_index,
        )
        trainer.step_index += 1
        trainer._record_step(end - run.start, run.result, self.record)


class _PhaseSeries(dict):
    """Phase name -> the trainer's interned ``step_phase_seconds`` series."""

    def __init__(self, trainer: str) -> None:
        super().__init__()
        self.trainer = trainer

    def __missing__(self, phase: str) -> int:
        ident = self[phase] = _telemetry.series(
            "step_phase_seconds", trainer=self.trainer, phase=phase
        )
        return ident


class BaseTrainer(ABC):
    """The training step, stated once for every strategy.

    A parallelisation strategy changes *how the update executes*, never
    the step around it (Section 3.2).  :meth:`_step` is that step; a
    strategy supplies only what differs: ``_ready``, its
    ``_forward_backward`` over the replica stack, and — as the body of its
    ``step`` — its gradient exchange + update.  Every strategy class
    defines ``step`` itself rather than inheriting it, so that outside-in
    tracers, which wrap the method found in each class's own ``__dict__``,
    see one per strategy.

    Every step records one way: its collectives, buckets and overlap model
    count what they launched into the step's record, and the step writes
    those counts and its own in one registry call (:meth:`_record_step`).
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
        #: The series slots the last step counted, which the next step's
        #: record starts from (and which keep the children they resolved).
        self._step_slots: Any = None
        #: The step's own series: ``train_steps``, per phase name its
        #: ``step_phase_seconds`` and the ``step_seconds`` histogram.
        trainer = type(self).__name__
        self._train_steps = _telemetry.series("train_steps", trainer=trainer)
        self._phase_series = _PhaseSeries(trainer)
        self._step_seconds = _telemetry.intern(
            "histogram", "step_seconds", {"trainer": trainer}
        )

    @property
    @abstractmethod
    def _ready(self) -> bool:
        """Whether ``init()`` (or a restore) has installed training state."""

    @abstractmethod
    def _forward_backward(
        self, xs: np.ndarray, labels: np.ndarray
    ) -> tuple[Sequence[float], Any]:
        """Every replica's loss and gradients, from its row of the stacks.

        ``xs`` is ``[n, batch / n, ...]`` and ``labels`` ``[n, batch / n]``.
        """

    def _split(self, x: np.ndarray, labels: np.ndarray):
        """The global batch as ``[n, batch / n, ...]`` replica stacks."""
        n = self.num_replicas
        if x.shape[0] % n != 0:
            raise ValueError(
                f"global batch {x.shape[0]} not divisible by {n} replicas"
            )
        return x.reshape(n, -1, *x.shape[1:]), labels.reshape(n, -1)

    def _step(self, x: np.ndarray, labels: np.ndarray) -> "_Step":
        """The step around a strategy's gradient exchange + update.

        Entering the returned context runs the ``split`` and
        ``forward_backward`` phases and gives the :class:`_StepRun`; the
        ``with`` body runs the strategy's phases through ``run.phase``; on
        exit ``run.result`` holds the finished :class:`StepResult`.

        Telemetry: one ``train_step`` span (category ``"step"``) encloses
        the phase spans of the paper's step breakdown, named exactly as
        ``StepResult.phase_seconds``; all of them are cut from the step's
        own clock marks.  The step's counters, its sites' included, are
        written in one registry call at its end (:meth:`_record_step`).
        With ``overlap`` the
        backprop-overlapped timeline of the same step is modeled
        (``overlap_model`` span, ``overlap_*`` counters) without changing
        any arithmetic.
        """
        return _Step(self, x, labels)

    def _record_step(
        self, seconds: float, result: StepResult, record: Any
    ) -> None:
        """Step telemetry, labeled by trainer class, plus the flight record.

        The step tallies itself and its phase seconds into its ``record``
        like any other site, and every amount there is written in one
        registry call.  The flight recorder keeps the children and amounts
        it wrote.
        """
        if not _telemetry.enabled:
            return
        phase_seconds = result.phase_seconds
        record.tally_all(
            (self._train_steps, *map(self._phase_series.__getitem__, phase_seconds)),
            (1.0, *phase_seconds.values()),
        )
        slots = self._step_slots = record.slots
        m = _telemetry.metrics
        m.add(slots, record.amounts)
        m.child(self._step_seconds).observe(seconds)
        _telemetry.flight_recorder.on_step(
            result, type(self).__name__, slots.children, record.amounts
        )

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


@cache
def _trainer_classes() -> tuple[type, type, type, type]:
    """The single, data-parallel, WUS and hybrid trainer classes, imported
    on the first :func:`make_trainer` call of a process: their modules
    import this one."""
    from repro.core.data_parallel import DataParallelTrainer, SingleDeviceTrainer
    from repro.core.model_parallel import HybridParallelTrainer
    from repro.core.weight_update_sharding import WeightUpdateShardedTrainer

    return (
        SingleDeviceTrainer, DataParallelTrainer, WeightUpdateShardedTrainer,
        HybridParallelTrainer,
    )


def make_trainer(config: TrainerConfig) -> Trainer:
    """Build (and, with ``seed``, initialize) the trainer a config describes."""
    (
        SingleDeviceTrainer, DataParallelTrainer, WeightUpdateShardedTrainer,
        HybridParallelTrainer,
    ) = _trainer_classes()
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
