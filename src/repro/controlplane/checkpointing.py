"""Checkpoint-interval policies: when to pay the snapshot to bound rework.

The chaos harness originally checkpointed on a fixed step interval.  That
is one point in a classic trade-off: checkpoint too often and the save
overhead eats goodput, too rarely and every failure rewinds a long way.
This module turns the decision into policy objects consumed by
:func:`repro.resilience.chaos.run_chaos`:

* :class:`StepInterval` — every ``k`` steps (the legacy behavior);
* :class:`WallClockInterval` — every ``T`` modeled seconds, which under
  stragglers checkpoints by *time at risk* rather than step count;
* :class:`RiskAdaptive` — the Young/Daly square-root rule
  ``interval = sqrt(2 * C / h)`` for checkpoint cost ``C`` and hazard
  rate ``h``, derived from a :class:`~repro.resilience.faults.FaultPlan`
  via :meth:`RiskAdaptive.from_plan`.

Policies are pure predicates over (step, modeled time, last checkpoint);
they own no state, so a replayed run makes identical decisions.
"""

from __future__ import annotations

import abc
import math

from repro.refuse import count, non_negative, positive
from repro.resilience.faults import FaultPlan


class CheckpointPolicy(abc.ABC):
    """Decide, after each completed step, whether to snapshot now."""

    @abc.abstractmethod
    def should_checkpoint(
        self,
        *,
        step: int,
        now_s: float,
        last_checkpoint_step: int,
        last_checkpoint_time_s: float,
    ) -> bool:
        """``step`` steps are complete and the clock reads ``now_s``."""


class StepInterval(CheckpointPolicy):
    """Checkpoint every ``every_steps`` completed steps."""

    def __init__(self, every_steps: int) -> None:
        self.every_steps = count("every_steps", every_steps)

    def should_checkpoint(
        self, *, step, now_s, last_checkpoint_step, last_checkpoint_time_s
    ) -> bool:
        return step - last_checkpoint_step >= self.every_steps


class WallClockInterval(CheckpointPolicy):
    """Checkpoint whenever ``every_seconds`` of modeled time is at risk."""

    def __init__(self, every_seconds: float) -> None:
        self.every_seconds = positive("every_seconds", every_seconds)

    def should_checkpoint(
        self, *, step, now_s, last_checkpoint_step, last_checkpoint_time_s
    ) -> bool:
        return now_s - last_checkpoint_time_s >= self.every_seconds


class RiskAdaptive(CheckpointPolicy):
    """Young/Daly optimal interval from a hazard rate and a snapshot cost.

    ``interval_s = sqrt(2 * checkpoint_seconds / hazard_per_second)`` —
    the first-order optimum balancing snapshot overhead against expected
    rework.  A zero hazard rate degenerates to "never checkpoint again"
    (the interval is infinite), which is the right call for a fault-free
    plan.
    """

    def __init__(
        self, hazard_per_second: float, checkpoint_seconds: float
    ) -> None:
        self.hazard_per_second = non_negative("hazard_per_second", hazard_per_second)
        self.checkpoint_seconds = positive("checkpoint_seconds", checkpoint_seconds)

    @property
    def interval_s(self) -> float:
        if self.hazard_per_second == 0:
            return math.inf
        return math.sqrt(2 * self.checkpoint_seconds / self.hazard_per_second)

    def should_checkpoint(
        self, *, step, now_s, last_checkpoint_step, last_checkpoint_time_s
    ) -> bool:
        return now_s - last_checkpoint_time_s >= self.interval_s

    @classmethod
    def from_plan(
        cls,
        plan: FaultPlan,
        *,
        horizon_s: float,
        state_bytes: int,
        bandwidth_bytes_per_s: float,
    ) -> "RiskAdaptive":
        """Estimate the hazard rate from a plan's interrupting events.

        Chip failures and preemptions force a restore; link flaps and
        stragglers only slow steps down, so they carry no hazard here.
        """
        positive("horizon_s", horizon_s)
        interrupting = len(plan.chip_failures) + len(plan.preemptions)
        return cls(
            hazard_per_second=interrupting / horizon_s,
            checkpoint_seconds=max(
                state_bytes / bandwidth_bytes_per_s, 1e-12
            ),
        )
