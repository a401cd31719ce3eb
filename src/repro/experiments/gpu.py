"""GPU comparator end-to-end model for Figures 10-11.

NVIDIA's MLPerf v0.7 submissions ran data parallelism on DGX clusters; we
model them with the same methodology as the TPU runs — the same convergence
tables and per-model efficiencies, the GPU chip specs, and the NCCL-style
hierarchical all-reduce of :class:`repro.hardware.gpu.GpuCluster`
(:func:`repro.comm.cost.gpu_all_reduce_time`) — so the
TPU-vs-GPU comparison isolates the *system* differences (interconnect
topology and per-chip throughput), which is what the paper's figures argue
about.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.cost import gpu_all_reduce_time
from repro.core.convergence import ConvergenceModel
from repro.core.end_to_end import num_evals_for
from repro.core.planner import PLANNER_RULES
from repro.experiments.calibration import CALIBRATIONS, spec_for
from repro.hardware.gpu import dgx_cluster


@dataclass(frozen=True)
class GpuRunResult:
    """Modeled MLPerf run on a GPU cluster."""

    benchmark: str
    num_gpus: int
    generation: str
    global_batch: int
    steps: int
    step_seconds: float
    eval_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.steps * self.step_seconds + self.eval_seconds

    @property
    def total_minutes(self) -> float:
        return self.total_seconds / 60.0


#: Global batches the GPU submissions used where they differ from the
#: per-GPU-cap heuristic (DLRM ran batch 65536 on only 16 GPUs).
GPU_BATCH_OVERRIDES = {"dlrm": 65536}

#: NVIDIA MLPerf v0.7 submission scales (GPUs) per benchmark.
NVIDIA_V07_SCALES = {
    "resnet50": {"a100": 1536, "v100": 1536},
    "bert": {"a100": 2048, "v100": 1536},
    "ssd": {"a100": 1024, "v100": 512},
    "transformer": {"a100": 480, "v100": 480},
    "maskrcnn": {"a100": 256, "v100": 192},
    "dlrm": {"a100": 16, "v100": 16},
}


def gpu_end_to_end(
    benchmark: str,
    num_gpus: int,
    generation: str = "a100",
    *,
    step_overhead: float = 1.0e-3,
) -> GpuRunResult:
    """Model one benchmark on a DGX cluster.

    Uses the benchmark's planner batch rules (per-*chip* caps halved per
    GPU, one GPU ~ one TPU core) and the TPU-calibrated efficiency — GPU
    tensor cores and TPU MXUs achieve comparable utilization on the same
    model, so differences come from peak rate and interconnect.
    """
    spec = spec_for(benchmark)
    cal = CALIBRATIONS[benchmark]
    rules = PLANNER_RULES[benchmark]
    cluster = dgx_cluster(num_gpus, generation)
    if benchmark in GPU_BATCH_OVERRIDES:
        global_batch = GPU_BATCH_OVERRIDES[benchmark]
    else:
        per_gpu_cap = max(1, rules.per_chip_batch_cap // 2)
        global_batch = min(rules.max_global_batch, per_gpu_cap * num_gpus)
    batch_per_gpu = global_batch / num_gpus
    compute = cluster.compute_time(
        spec.flops_per_example * batch_per_gpu, cal.mxu_efficiency
    )
    allreduce = gpu_all_reduce_time(cluster, spec.gradient_bytes)
    # Optimizer update, HBM-bound, replicated (no WUS in the comparator).
    update = cluster.chip.hbm_time(spec.params * spec.optimizer_bytes_per_param)
    step = compute + allreduce + update + step_overhead
    convergence = ConvergenceModel(spec)
    steps = convergence.steps_to_converge(global_batch)
    num_evals = num_evals_for(spec, convergence, global_batch)
    eval_seconds = num_evals * (cal.eval_overhead_seconds + 0.2)
    return GpuRunResult(
        benchmark=benchmark,
        num_gpus=num_gpus,
        generation=generation,
        global_batch=global_batch,
        steps=steps,
        step_seconds=step,
        eval_seconds=eval_seconds,
    )
