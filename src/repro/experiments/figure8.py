"""Figure 8: BERT per-step compute vs all-reduce breakdown.

Observations to reproduce: per-chip batch 2 at 4096 chips (4-48 at other
scales); the all-reduce share is larger than ResNet-50's at every scale
(334M params vs 25.6M).
"""

from __future__ import annotations

from repro.experiments.fidelity import Claim
from repro.experiments.report import Figure
from repro.experiments.scaling import SCALING_CHIPS, sweep

PAPER_ALLREDUCE_FRACTION_4096 = 0.273


def run(chips: tuple[int, ...] = SCALING_CHIPS) -> Figure:
    s = sweep("bert", "tf", chips)
    fig = Figure("Figure 8: BERT step breakdown (ms/step on device)", "chips")
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
    """The 4096-chip all-reduce share; per-chip batch 48 -> 2."""
    bpc = dict(zip(*fig.series["batch_per_chip"]))
    frac = fig.series["allreduce_fraction_at_4096"][1][0]
    return [
        Claim("figure8/allreduce_fraction_4096", PAPER_ALLREDUCE_FRACTION_4096, frac, "near 0.06"),
        Claim("figure8/batch_per_chip_16", 48, bpc[16], "=="),
        Claim("figure8/batch_per_chip_4096", 2, bpc[4096], "=="),
    ]
