"""Learning-rate schedules for large-batch training."""

from __future__ import annotations

import abc

from repro.refuse import count, non_negative


class LRSchedule(abc.ABC):
    """A learning rate as a function of the (0-based) step index."""

    @abc.abstractmethod
    def __call__(self, step: int) -> float:
        ...


class ConstantSchedule(LRSchedule):
    """A fixed learning rate."""

    def __init__(self, value: float) -> None:
        self.value = float(non_negative("learning_rate", value))

    def __call__(self, step: int) -> float:
        return self.value


class LinearWarmupPolyDecay(LRSchedule):
    """Linear warmup to ``peak`` then polynomial decay to ``end``.

    This is the shape used by both the MLPerf BERT (LAMB) and ResNet-50
    (LARS) references; warmup length grows with batch size when the batch
    is scaled up, which the convergence model in :mod:`repro.core` mirrors.
    """

    def __init__(
        self,
        peak: float,
        warmup_steps: int,
        total_steps: int,
        power: float = 2.0,
        end: float = 0.0,
    ) -> None:
        self.peak = non_negative("peak", peak)
        self.warmup_steps = count("warmup_steps", warmup_steps, minimum=0)
        self.total_steps = count("total_steps", total_steps)
        self.power = non_negative("power", power)
        self.end = non_negative("end", end)
        if warmup_steps >= total_steps:
            raise ValueError("warmup must end before total_steps")

    def __call__(self, step: int) -> float:
        if self.warmup_steps > 0 and step < self.warmup_steps:
            return self.peak * (step + 1) / self.warmup_steps
        remaining = max(0, self.total_steps - step)
        frac = remaining / max(1, self.total_steps - self.warmup_steps)
        return self.end + (self.peak - self.end) * frac**self.power


def as_schedule(lr: "float | LRSchedule") -> LRSchedule:
    """Coerce a bare float into a constant schedule."""
    if isinstance(lr, LRSchedule):
        return lr
    return ConstantSchedule(lr)
