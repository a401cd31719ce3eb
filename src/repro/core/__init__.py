"""The paper's contribution: scalability techniques and scaling models.

Functional layer (actually trains numpy models, used by the equivalence
tests and examples):

* :mod:`repro.core.data_parallel` — synchronous data-parallel training with
  ring / 2-D hierarchical gradient summation.
* :mod:`repro.core.weight_update_sharding` — Section 3.2: reduce-scatter
  gradients, shard the optimizer update (with distributed trust-ratio
  norms for LARS/LAMB), all-gather updated weights.
* :mod:`repro.core.model_parallel` — Section 3.1's feature-dimension
  sharding (Mesh-TensorFlow style) and hybrid data x model parallelism with
  peer gradient reduction (Figure 4).
* :mod:`repro.core.trainer` — the unified construction surface:
  :class:`TrainerConfig` + :func:`make_trainer` build any of the above,
  and every ``step`` returns a :class:`StepResult`.

Analytic layer (regenerates the paper's evaluation):

* :mod:`repro.core.strategy` — parallelism configuration.
* :mod:`repro.core.step_time` — per-step compute/communication/update model.
* :mod:`repro.core.overlap` — backprop-overlapped bucketed gradient
  collectives: overlap-aware step time, exposed-comm accounting, and the
  bucket-size trade-off.
* :mod:`repro.core.convergence` — steps-to-accuracy vs. batch size.
* :mod:`repro.core.end_to_end` — MLPerf end-to-end time (init + train +
  eval) model.
* :mod:`repro.core.planner` — picks the best parallelism for a model on a
  slice, reproducing the paper's per-benchmark choices.
"""

from repro._lazy import lazy_exports

_EXPORTS = {
    "STRATEGIES": "trainer",
    "StepResult": "trainer",
    "Trainer": "trainer",
    "TrainerConfig": "trainer",
    "make_trainer": "trainer",
    "OverlapResult": "overlap",
    "analytic_overlap": "overlap",
    "measured_overlap": "overlap",
    "simulate_overlap_schedule": "overlap",
    "SingleDeviceTrainer": "data_parallel",
    "DataParallelTrainer": "data_parallel",
    "shard_states": "weight_update_sharding",
    "sharded_update": "weight_update_sharding",
    "WeightUpdateShardedTrainer": "weight_update_sharding",
    "FeatureShardedMLP": "model_parallel",
    "HybridParallelTrainer": "model_parallel",
    "ParallelismConfig": "strategy",
    "StepTimeBreakdown": "step_time",
    "StepTimeModel": "step_time",
    "ConvergenceModel": "convergence",
    "EPOCH_TABLES": "convergence",
    "EndToEndModel": "end_to_end",
    "EndToEndResult": "end_to_end",
    "plan_parallelism": "planner",
    "PlanChoice": "planner",
    "local_batch_norm": "batchnorm",
    "distributed_batch_norm": "batchnorm",
    "batch_norm_group_cost": "batchnorm",
    "MemoryModel": "memory",
    "MemoryFootprint": "memory",
    "LoopResult": "loop",
    "simulate_train_eval_loop": "loop",
    "dlrm_eval_accumulation_ablation": "loop",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
