"""Figure 11: end-to-end speedup over 16 accelerator chips of their own type.

For each benchmark, the speedup curve of the TPU multipod (16 -> 4096
chips) against the A100 cluster's curve (16 -> its submission scale).  The
paper's claim: the techniques of Sections 3-4 let TPUs sustain higher
speedups at scale than the GPU submissions — the constant-ish 2-D torus
all-reduce beats the hierarchical NVLink+IB reduction as chip counts grow.
"""

from __future__ import annotations

from repro.experiments.fidelity import Claim
from repro.experiments.gpu import NVIDIA_V07_SCALES, gpu_end_to_end
from repro.experiments.report import Figure
from repro.experiments.scaling import SCALING_CHIPS, sweep

BENCHMARKS = ("resnet50", "bert", "transformer", "ssd")


def run() -> Figure:
    fig = Figure(
        "Figure 11: speedup over 16 chips of own type (modeled)", "chips"
    )
    for name in BENCHMARKS:
        tpu_sweep = sweep(name, "tf", SCALING_CHIPS)
        e2e = tpu_sweep.end_to_end_speedup(16)
        fig.add_series(
            f"tpu_{name}",
            tpu_sweep.chips,
            [round(e2e[c], 2) for c in tpu_sweep.chips],
        )
        max_gpus = NVIDIA_V07_SCALES[name]["a100"]
        gpu_counts = [c for c in SCALING_CHIPS if c <= max_gpus]
        if max_gpus not in gpu_counts:
            gpu_counts.append(max_gpus)
        base = gpu_end_to_end(name, 16, "a100").total_seconds
        fig.add_series(
            f"gpu_a100_{name}",
            gpu_counts,
            [
                round(base / gpu_end_to_end(name, g, "a100").total_seconds, 2)
                for g in gpu_counts
            ],
        )
    return fig


def claims(fig: Figure) -> list[Claim]:
    """At its largest scale the TPU's own-baseline speedup beats the A100's."""
    return [
        Claim(f"figure11/{n}/tpu_over_a100_max_speedup", 1.0,
              max(fig.series[f"tpu_{n}"][1]) / max(fig.series[f"gpu_a100_{n}"][1]), ">")
        for n in ("resnet50", "bert")
    ]
