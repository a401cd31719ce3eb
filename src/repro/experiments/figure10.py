"""Figure 10: MLPerf v0.7 end-to-end minutes, TPU multipod vs V100/A100.

Bars per benchmark: the TPU-v3 submission configuration vs NVIDIA's V100
and A100 submission scales, all modeled with the same methodology (see
:mod:`repro.experiments.gpu`).  The claims are orderings: at its
submission scale the TPU multipod beats the same-generation V100 systems
everywhere, and the A100 on Transformer.
"""

from __future__ import annotations

from repro.core.planner import plan_parallelism
from repro.experiments.calibration import end_to_end_model, spec_for
from repro.experiments.fidelity import Claim
from repro.experiments.gpu import NVIDIA_V07_SCALES, gpu_end_to_end
from repro.experiments.report import Table
from repro.experiments.table1 import TABLE1_ROWS

#: TPU submission scales from Table 1 (best configuration per benchmark).
TPU_SCALES = {name: chips for name, chips, _ in TABLE1_ROWS}

#: NVIDIA's actual v0.7 DLRM time on 16 A100s (minutes): the external check
#: of the GPU model.
NVIDIA_DLRM_A100_MINUTES = 3.33


def run() -> Table:
    table = Table(
        "Figure 10: end-to-end minutes, TPU-v3 vs GPU clusters (modeled)",
        ["Benchmark", "TPU chips", "TPU min", "A100 GPUs", "A100 min",
         "V100 GPUs", "V100 min"],
    )
    for name in ("resnet50", "bert", "ssd", "transformer", "maskrcnn", "dlrm"):
        chips = TPU_SCALES[name]
        plan = plan_parallelism(spec_for(name), chips)
        tpu = end_to_end_model(name, "tf").run(plan.config)
        scales = NVIDIA_V07_SCALES[name]
        a100 = gpu_end_to_end(name, scales["a100"], "a100")
        v100 = gpu_end_to_end(name, scales["v100"], "v100")
        table.add_row(
            name,
            chips,
            round(tpu.total_minutes, 3),
            a100.num_gpus,
            round(a100.total_minutes, 3),
            v100.num_gpus,
            round(v100.total_minutes, 3),
        )
    return table


def claims(table: Table) -> list[Claim]:
    """TPU beats V100 everywhere and A100 on Transformer; the GPU model's
    anchors: NVIDIA's DLRM time, A100 over V100 at equal scale."""
    names = table.column("Benchmark")
    tpu, a100, v100 = (dict(zip(names, table.column(f"{s} min"))) for s in ("TPU", "A100", "V100"))
    return [
        *(Claim(f"figure10/{n}/tpu_over_v100", 1.0, tpu[n] / v100[n], "<") for n in names),
        Claim("figure10/transformer/tpu_over_a100", 1.0,
              tpu["transformer"] / a100["transformer"], "<"),
        Claim("figure10/dlrm/a100_minutes", NVIDIA_DLRM_A100_MINUTES, a100["dlrm"], "within 0.4"),
        *(Claim(f"figure10/{n}/a100_over_v100_512gpus", 1.0,
                gpu_end_to_end(n, 512, "a100").total_seconds
                / gpu_end_to_end(n, 512, "v100").total_seconds, "<") for n in ("resnet50", "bert")),
    ]
