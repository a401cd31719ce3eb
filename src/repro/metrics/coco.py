"""COCO-eval scheduling: coordinator vs round-robin workers (§4.4).

COCO mAP evaluation is a CPU-heavy job (tens of seconds).  TF SSD brings
all predictions to the coordinator, which runs *every* eval — they queue up
behind each other.  JAX has no coordinator, so eval ``i`` runs on worker
``i mod num_workers``: consecutive evals overlap on different hosts.  This
module computes both schedules' completion times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.refuse import count, positive


@dataclass(frozen=True)
class CocoEvalSchedule:
    """Completion times of each eval relative to its trigger time."""

    label: str
    trigger_times: tuple[float, ...]
    completion_times: tuple[float, ...]

    @property
    def latencies(self) -> tuple[float, ...]:
        return tuple(
            c - t for c, t in zip(self.completion_times, self.trigger_times)
        )

    @property
    def max_latency(self) -> float:
        return max(self.latencies)

    @property
    def final_completion(self) -> float:
        return max(self.completion_times)


def _validate(trigger_times: list[float], eval_seconds: float) -> None:
    positive("eval_seconds", eval_seconds)
    if sorted(trigger_times) != list(trigger_times):
        raise ValueError("trigger_times must be sorted")
    if not trigger_times:
        raise ValueError("need at least one eval")


def coordinator_eval_schedule(
    trigger_times: list[float], eval_seconds: float
) -> CocoEvalSchedule:
    """All evals queue on the single coordinator host (TF path)."""
    _validate(trigger_times, eval_seconds)
    completions = []
    free_at = 0.0
    for t in trigger_times:
        start = max(t, free_at)
        free_at = start + eval_seconds
        completions.append(free_at)
    return CocoEvalSchedule("coordinator", tuple(trigger_times), tuple(completions))


def round_robin_eval_schedule(
    trigger_times: list[float], eval_seconds: float, num_workers: int
) -> CocoEvalSchedule:
    """Eval i runs on worker ``i mod num_workers`` (JAX path)."""
    _validate(trigger_times, eval_seconds)
    count("num_workers", num_workers)
    free_at = [0.0] * num_workers
    completions = []
    for i, t in enumerate(trigger_times):
        w = i % num_workers
        start = max(t, free_at[w])
        free_at[w] = start + eval_seconds
        completions.append(free_at[w])
    return CocoEvalSchedule("round_robin", tuple(trigger_times), tuple(completions))
