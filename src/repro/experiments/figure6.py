"""Figure 6: ResNet-50 per-step compute vs all-reduce time on TPUs.

The paper's observations: per-chip mini-batch shrinks 256 -> 16 as scale
grows 16 -> 4096 chips; compute time falls accordingly while the all-reduce
time stays nearly constant (ring bandwidth terms are scale-free), reaching
the paper's share of device step time at 4096 chips.
"""

from __future__ import annotations

from repro.experiments.fidelity import Claim
from repro.experiments.report import Figure
from repro.experiments.scaling import SCALING_CHIPS, sweep

PAPER_ALLREDUCE_FRACTION_4096 = 0.22


def run(chips: tuple[int, ...] = SCALING_CHIPS) -> Figure:
    s = sweep("resnet50", "tf", chips)
    fig = Figure(
        "Figure 6: ResNet-50 step breakdown (ms/step on device)", "chips"
    )
    breakdown = s.step_breakdown_ms()
    fig.add_series("compute_ms", s.chips, [round(breakdown[c][0], 3) for c in s.chips])
    fig.add_series("allreduce_ms", s.chips, [round(breakdown[c][1], 3) for c in s.chips])
    fig.add_series(
        "batch_per_chip", s.chips, [s.batch_per_chip()[c] for c in s.chips]
    )
    if 4096 in s.runs:
        fig.add_series(
            "allreduce_fraction_at_4096",
            [4096],
            [round(s.allreduce_fraction(4096), 4)],
        )
    return fig


def claims(fig: Figure) -> list[Claim]:
    """Compute shrinks > 10x, the all-reduce < 2x; its 4096-chip share."""
    comp = dict(zip(*fig.series["compute_ms"]))
    ar = dict(zip(*fig.series["allreduce_ms"]))
    frac = fig.series["allreduce_fraction_at_4096"][1][0]
    return [
        Claim("figure6/compute_16_over_4096", 10, comp[16] / comp[4096], ">"),
        Claim("figure6/allreduce_4096_over_16", 2, ar[4096] / ar[16], "<"),
        Claim("figure6/allreduce_fraction_4096", PAPER_ALLREDUCE_FRACTION_4096, frac, "near 0.05"),
    ]
