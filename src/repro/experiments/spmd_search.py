"""Frontier: searched vs hand-annotated sharding per model x feature set.

For each model graph and model-tile size, compares the step time of

* the all-replicated baseline (no model parallelism inside the tile),
* the paper's hand-written annotations (Section 3.1 / 4.3), and
* the best plan the automatic partitioner search finds,

under both the v0.6 and v0.7 feature sets.  The claim being reproduced:
the search *matches or beats* the hand annotations everywhere — the
mechanical GSPMD-style enumeration recovers (and sometimes improves on)
what the paper's authors derived by hand.  Small executable graphs also
report a bit-exactness verdict for the winning plan.
"""

from __future__ import annotations

import functools

from repro.experiments.fidelity import Claim
from repro.experiments.report import Table
from repro.spmd import (
    SearchConfig,
    ShardingSpec,
    make_partitioner,
    search_partitioning,
)
from repro.spmd.modelgraphs import (
    resnet_block_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)

#: (label, graph builder, hand seed fn, tile sizes, bit-exact validation).
MODELS = (
    ("ssd", ssd_graph, spatial_seeds, (2, 4, 8), False),
    (
        "transformer",
        functools.partial(transformer_block_graph, seq=27),
        transformer_seeds,
        (2, 4),
        False,
    ),
    ("resnet_block", resnet_block_graph, spatial_seeds, (2, 4), True),
)


def run(seed: int = 0) -> Table:
    table = Table(
        "Partitioner search frontier: searched vs hand-annotated sharding",
        [
            "model", "features", "cores",
            "replicated_ms", "hand_ms", "searched_ms",
            "speedup_vs_hand", "bit_exact",
        ],
    )
    for label, builder, hand_fn, tile_sizes, validate in MODELS:
        for features in ("v06", "v07"):
            partitioner = make_partitioner(features)
            for k in tile_sizes:
                graph = builder()
                hand = partitioner.partition(
                    graph, ShardingSpec.from_seeds(k, dict(hand_fn(graph, k)))
                )
                result = search_partitioning(
                    graph,
                    SearchConfig(
                        num_shards=k, seed=seed,
                        seed_nodes="all" if validate else "handles",
                        validate=validate,
                    ),
                    partitioner,
                )
                if validate:
                    verdict = (
                        "yes" if result.validations and result.validations[0].ok
                        else "NO"
                    )
                else:
                    verdict = "n/a"
                table.add_row(
                    label,
                    features,
                    k,
                    round(result.baseline.total_seconds * 1e3, 4),
                    round(hand.total_seconds * 1e3, 4),
                    round(result.best.total_seconds * 1e3, 4),
                    round(hand.total_seconds / result.best.total_seconds, 3),
                    verdict,
                )
    return table


def claims(table: Table) -> list[Claim]:
    """The search never loses to the hand annotation; the ResNet winner is bit-exact."""
    rows = [f"{m}_{f}_{k}" for m, f, k in
            zip(table.column("model"), table.column("features"), table.column("cores"))]
    return [
        *(Claim(f"spmd_search/{row}/vs_hand", 0.999, speedup, ">=")
          for row, speedup in zip(rows, table.column("speedup_vs_hand"))),
        Claim("spmd_search/min_searched_ms", 0.0, min(table.column("searched_ms")), ">"),
        Claim("spmd_search/resnet_block_v07_4/bit_exact", "yes",
              dict(zip(rows, table.column("bit_exact")))["resnet_block_v07_4"], "=="),
    ]
