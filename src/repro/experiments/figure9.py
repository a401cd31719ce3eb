"""Figure 9: speedup via model parallelism (SSD, MaskRCNN, Transformer).

Speedups over 1 core for 2/4/8-core model-parallel tiles, computed by
partitioning each model's IR graph with the SPMD partitioner and costing
the result.  The paper's anchor: Transformer's speedup on 4 cores;
SSD's curve saturates earlier than MaskRCNN's (300x300 images leave less
spatial work per tile than 800x1333).  A v0.6-features series shows the
gain from the XLA work of Section 4.5.
"""

from __future__ import annotations

import functools

from repro.experiments.fidelity import Claim
from repro.experiments.report import Figure
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES
from repro.spmd.plan import model_parallel_speedup

PAPER_TRANSFORMER_SPEEDUP_4CORES = 2.3

#: (label, graph builder, seed fn, core counts shown in the paper).
MODELS = (
    ("ssd", ssd_graph, spatial_seeds, (1, 2, 4, 8)),
    ("maskrcnn", maskrcnn_graph, spatial_seeds, (1, 2, 4, 8)),
    (
        "transformer",
        functools.partial(transformer_block_graph, seq=27),
        transformer_seeds,
        (1, 2, 4),
    ),
)


def run() -> Figure:
    fig = Figure(
        "Figure 9: model-parallelism speedup over 1 core", "cores"
    )
    for label, builder, seeds, cores in MODELS:
        v07 = model_parallel_speedup(builder, seeds, list(cores),
                                     features=V07_FEATURES)
        fig.add_series(
            f"{label}_v0.7", list(cores), [round(v07[k], 2) for k in cores]
        )
        v06 = model_parallel_speedup(builder, seeds, list(cores),
                                     features=V06_FEATURES)
        fig.add_series(
            f"{label}_v0.6", list(cores), [round(v06[k], 2) for k in cores]
        )
    return fig


def claims(fig: Figure) -> list[Claim]:
    """The Transformer anchor; v0.7 >= v0.6; MaskRCNN past SSD past 2x."""
    s = {name: dict(zip(*points)) for name, points in fig.series.items()}
    return [
        Claim("figure9/transformer_v0.7_4cores", PAPER_TRANSFORMER_SPEEDUP_4CORES,
              s["transformer_v0.7"][4], "near 0.6"),
        *(Claim(f"figure9/{m}_v0.7_over_v0.6_8cores", 1.0,
                s[f"{m}_v0.7"][8] / s[f"{m}_v0.6"][8], ">=") for m in ("ssd", "maskrcnn")),
        Claim("figure9/maskrcnn_over_ssd_8cores", 1.0,
              s["maskrcnn_v0.7"][8] / s["ssd_v0.7"][8], ">"),
        Claim("figure9/ssd_v0.7_8cores", 2.0, s["ssd_v0.7"][8], ">"),
    ]
