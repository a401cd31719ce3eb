"""Figure 7: BERT end-to-end speedup vs chip count (16 -> 4096).

BERT shows the paper's best scaling: LAMB keeps batch-8192 convergence
steady, so the end-to-end curve tracks throughput closely.
"""

from __future__ import annotations

from repro.experiments.fidelity import Claim
from repro.experiments.report import Figure
from repro.experiments.scaling import SCALING_CHIPS, sweep


def run(chips: tuple[int, ...] = SCALING_CHIPS) -> Figure:
    s = sweep("bert", "tf", chips)
    base = chips[0]
    fig = Figure("Figure 7: BERT speedup vs TPU chips (base=16)", "chips")
    e2e = s.end_to_end_speedup(base)
    thr = s.throughput_speedup(base)
    fig.add_series("end_to_end", s.chips, [round(e2e[c], 2) for c in s.chips])
    fig.add_series("throughput", s.chips, [round(thr[c], 2) for c in s.chips])
    fig.add_series("ideal", s.chips, [c / base for c in s.chips])
    return fig


def claims(fig: Figure) -> list[Claim]:
    """BERT's near-throughput end-to-end scaling: over 80x at 4096 chips."""
    return [Claim("figure7/e2e_speedup_4096", 80, dict(zip(*fig.series["end_to_end"]))[4096], ">")]
