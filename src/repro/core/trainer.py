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
* :class:`StepResult` — the single step return type: a ``float`` subclass
  (so ``losses.append(trainer.step(...))`` keeps working everywhere the
  loss used to be a bare float) carrying per-phase seconds and bytes
  moved, consumed by telemetry and the chaos harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Protocol, runtime_checkable

import numpy as np

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
