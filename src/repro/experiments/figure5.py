"""Figure 5: ResNet-50 end-to-end and throughput speedup vs chip count.

The paper's observations to reproduce: throughput scales near-ideally with
chips, while end-to-end speedup bends away because (a) batch 64K needs 88
epochs vs 44 at batch 4K and (b) the constant all-reduce term grows
relative to shrinking compute.
"""

from __future__ import annotations

from repro.experiments.fidelity import Claim
from repro.experiments.report import Figure
from repro.experiments.scaling import SCALING_CHIPS, sweep


def run(chips: tuple[int, ...] = SCALING_CHIPS) -> Figure:
    s = sweep("resnet50", "tf", chips)
    base = chips[0]
    fig = Figure("Figure 5: ResNet-50 speedup vs TPU chips (base=16)", "chips")
    e2e = s.end_to_end_speedup(base)
    thr = s.throughput_speedup(base)
    ideal = {c: c / base for c in s.chips}
    fig.add_series("end_to_end", s.chips, [round(e2e[c], 2) for c in s.chips])
    fig.add_series("throughput", s.chips, [round(thr[c], 2) for c in s.chips])
    fig.add_series("ideal", s.chips, [ideal[c] for c in s.chips])
    return fig


def claims(fig: Figure) -> list[Claim]:
    """Throughput beats end-to-end (the convergence tax); end-to-end > 30x."""
    e2e = dict(zip(*fig.series["end_to_end"]))
    thr = dict(zip(*fig.series["throughput"]))
    return [
        Claim("figure5/throughput_over_e2e_4096", 1.0, thr[4096] / e2e[4096], ">"),
        Claim("figure5/e2e_speedup_4096", 30, e2e[4096], ">"),
    ]
