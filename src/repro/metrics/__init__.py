"""Evaluation metrics: distributed accuracy, fast AUC, COCO-eval scheduling."""

from repro.metrics.accuracy import (
    distributed_top1_accuracy,
    coordinator_top1_accuracy,
    pad_eval_dataset,
)
from repro.metrics.auc import auc_naive, auc_sorted
from repro.metrics.coco import (
    CocoEvalSchedule,
    coordinator_eval_schedule,
    round_robin_eval_schedule,
)

__all__ = [
    "distributed_top1_accuracy",
    "coordinator_top1_accuracy",
    "pad_eval_dataset",
    "auc_naive",
    "auc_sorted",
    "CocoEvalSchedule",
    "coordinator_eval_schedule",
    "round_robin_eval_schedule",
]
