"""The bit-identity bar, written down.

``tests/data/golden_des.json`` and ``tests/data/golden_search.json`` hold
what the link-level DES, the ``overlap`` experiment and the partitioner
search returned **at the parent of PR 24**, every float as ``float.hex()``.
The DES admission path (``Channel``) and the search's scoring path changed
in that PR; the bar is that no simulated time, ranked plan or cost float
moved by one bit.  ``==`` on the hex strings, no tolerance.

The tables use nothing but entry points that exist on both sides of the
change, so the parent wrote the files.  The Multipod rows (``multipod*``,
``peer/4096/*``, ``mixed/*``) came later, written on the parent of the
change that simulates one ring direction per symmetry class; the
``figure9/*`` rows (each unrounded ``model_parallel_speedup``) on the
parent of the change that prices Figure 9 through ``Partitioner``.  Every
older row stayed identical.  Regenerate with ``tests/golden.py capture``
(see there), only when a change *means* to move a number.
"""

from __future__ import annotations

import functools

from repro.comm.schedule import (
    simulate_degraded_all_gather,
    simulate_degraded_reduce_scatter,
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)
from repro.core.overlap import simulate_overlap_schedule
from repro.experiments.figure9 import MODELS
from repro.experiments.runner import EXPERIMENTS
from repro.hardware.rings import all_x_lines, all_y_rings, model_peer_ring, x_line, y_ring
from repro.hardware.topology import TorusMesh, multipod, slice_for_chips
from repro.resilience.faults import ChipFailure, FaultPlan, LinkFault, RetryPolicy
from repro.spmd import (
    SearchConfig,
    make_partitioner,
    model_parallel_speedup,
    search_partitioning,
)
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    ssd_graph,
    transformer_block_graph,
)
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES
from tests.golden import assert_matches, encode, load

#: Not round numbers: the chunk size ``payload / n`` must not be exact.
PAYLOADS = (1.0e6, 7.3e6 + 1.0 / 3.0, float(2**26 + 1))


def des_table() -> dict[str, object]:
    """Every DES-backed value the repo answers questions with."""
    out: dict[str, object] = {}
    for chips in (16, 64, 256, 512, 1024):
        mesh = slice_for_chips(chips)
        for family, rings in (("y", all_y_rings(mesh)), ("x", all_x_lines(mesh))):
            for i, payload in enumerate(PAYLOADS):
                for bidirectional in (True, False):
                    seconds = simulate_ring_reduce_scatter(
                        mesh, rings, payload, bidirectional=bidirectional
                    )
                    way = "bi" if bidirectional else "uni"
                    out[f"rings/{chips}/{family}/p{i}/{way}"] = seconds

    torus = TorusMesh(4, 4, wrap_x=True, wrap_y=True)
    line = TorusMesh(4, 4)
    for name, mesh in (("torus", torus), ("line", line)):
        ring = y_ring(mesh, 1)
        out[f"single/{name}/reduce_scatter"] = simulate_ring_reduce_scatter(
            mesh, ring, PAYLOADS[0]
        )
        out[f"single/{name}/all_gather_uni"] = simulate_ring_all_gather(
            mesh, ring, PAYLOADS[1], bidirectional=False
        )

    # Cross-pod optical links have their own latency (Figure 2).
    pods = multipod(2)
    out["single/multipod2/x_line"] = simulate_ring_reduce_scatter(
        pods, x_line(pods, 3), PAYLOADS[0]
    )

    # Contended model-peer rings: several logical rings queue on every X
    # link, and a chunk crosses ``mp`` links per step (one process each).
    for chips in (64, 256):
        mesh = slice_for_chips(chips)
        for mp in (2, 4):
            for rows, ys in (("row0", (0,)), ("all", range(mesh.y_size))):
                rings = [model_peer_ring(mesh, y, mp, p) for y in ys for p in range(mp)]
                seconds = simulate_ring_reduce_scatter(mesh, rings, PAYLOADS[1])
                out[f"peer/{chips}/mp{mp}/{rows}"] = seconds

    # Paper scale (Figure 4 on the 128x32 Multipod): Y torus rings, X lines
    # crossing pod boundaries, and every row's hop-over peer rings at once.
    for pods in (2, 4):
        mesh = multipod(pods)
        for family, rings in (("y", all_y_rings(mesh)), ("x", all_x_lines(mesh))):
            out[f"multipod{pods}/{family}"] = simulate_ring_reduce_scatter(
                mesh, rings, PAYLOADS[1]
            )
    mesh = multipod(4)
    for mp in (2, 4):
        rings = [model_peer_ring(mesh, y, mp, p) for y in range(mesh.y_size) for p in range(mp)]
        out[f"peer/4096/mp{mp}/all"] = simulate_ring_reduce_scatter(
            mesh, rings, PAYLOADS[2]
        )

    # One phase whose link-sharing components differ in shape: closed Y
    # rings, a lone peer ring, a contended pair of peer rings on another row
    # and an X line of its own.
    mesh = multipod(2)
    mixed = [
        y_ring(mesh, 0), y_ring(mesh, 33), model_peer_ring(mesh, 2, 4, 1),
        model_peer_ring(mesh, 5, 2, 0), model_peer_ring(mesh, 5, 2, 1), x_line(mesh, 9),
    ]
    for bidirectional in (True, False):
        way = "bi" if bidirectional else "uni"
        out[f"mixed/multipod2/{way}"] = simulate_ring_reduce_scatter(
            mesh, mixed, PAYLOADS[0], bidirectional=bidirectional
        )

    def degraded(key, simulate, mesh, rings, plan, policy=None):
        result = simulate(mesh, rings, PAYLOADS[0], plan, policy=policy)
        out[f"degraded/{key}"] = {
            "seconds": result.seconds,
            "retries": result.retries,
            "degraded_transfers": result.degraded_transfers,
            "healed_rings": result.healed_rings,
            "dropped_rings": result.dropped_rings,
        }

    mesh64 = slice_for_chips(64)
    flap = FaultPlan(link_faults=(LinkFault((0, 0), (0, 1), start=0.0, duration=2e-4),))
    patient = RetryPolicy(timeout_s=1e-4, max_attempts=10, backoff_s=1e-4)
    slow = FaultPlan(
        link_faults=(LinkFault((0, 0), (0, 1), start=0.0, duration=1e9, factor=0.5),)
    )
    dead = FaultPlan(chip_failures=(ChipFailure((0, 2), at_time=0.0),))
    for name, mesh, rings in (
        ("torus_ring", torus, y_ring(torus, 0)),
        ("64_all_y", mesh64, all_y_rings(mesh64)),
    ):
        degraded(f"flap/{name}", simulate_degraded_reduce_scatter, mesh, rings, flap, patient)
        degraded(f"slow/{name}", simulate_degraded_all_gather, mesh, rings, slow)
        degraded(f"dead_chip/{name}", simulate_degraded_reduce_scatter, mesh, rings, dead)
    pairs = TorusMesh(4, 2)
    degraded(
        "dropped_ring/4x2", simulate_degraded_reduce_scatter, pairs, all_y_rings(pairs),
        FaultPlan(chip_failures=(ChipFailure((1, 0), at_time=0.0),)),
    )

    # Buckets that queue behind one another on the one reduce network, two
    # of them ready at the same instant.
    result = simulate_overlap_schedule(
        [0.1, 0.1, 0.25, 0.9, 2.0], [0.3, 0.2, 0.05, 0.4, 0.1], 1.0,
        bucket_bytes=[3.0, 2.0, 0.5, 4.0, 1.0],
    )
    out["overlap/schedule"] = {
        "step": result.step_seconds,
        "exposed": result.exposed_comm_seconds,
        "trace": [[e.actor, e.name, e.start, e.duration, e.category] for e in result.trace.events],
    }
    for t, table in enumerate(EXPERIMENTS["overlap"]()):
        for r, row in enumerate(table.rows):
            out[f"overlap/table{t}/row{r}"] = row
    return encode(out)


GRAPHS = {
    "ssd": ssd_graph,
    "maskrcnn": maskrcnn_graph,
    "transformer": functools.partial(transformer_block_graph, seq=27),
    "resnet_block": resnet_block_graph,
}


def _layout(sharding) -> str:
    if sharding.partial:
        return "P"
    return "R" if sharding.dim is None else str(sharding.dim)


def _cost(plan) -> list[float]:
    c = plan.cost
    return [c.compute_seconds, c.serial_seconds, c.comm_seconds, c.comm_bytes]


def plan_row(plan) -> dict[str, object]:
    """Everything that identifies a plan: spec, cost floats, induced comm."""
    return {
        "spec": [[ref, _layout(s)] for ref, s in plan.spec.assignments],
        "cost": _cost(plan),
        "comm_ops": len(plan.comm_ops),
        "serial_nodes": sorted(plan.serial_nodes),
        "shardings": "".join(_layout(plan.shardings[n.id]) for n in plan.graph.nodes),
    }


def search_table() -> dict[str, object]:
    """192 searches: 4 graphs x k x seed set x beam x seed x feature set,
    and every unrounded Figure 9 speedup."""
    out: dict[str, object] = {}
    for label, builder, seeds, cores in MODELS:
        for tag, features in (("v06", V06_FEATURES), ("v07", V07_FEATURES)):
            speedups = model_parallel_speedup(builder, seeds, list(cores), features=features)
            for k in cores:
                out[f"figure9/{label}/{tag}/{k}"] = speedups[k]
    graphs = {name: build() for name, build in GRAPHS.items()}
    for features in ("v06", "v07"):
        partitioner = make_partitioner(features)
        for name, graph in graphs.items():
            for k in (2, 4, 8):
                for nodes in ("handles", "all"):
                    for beam in (8, 32):
                        for seed in (0, 2021):
                            result = search_partitioning(
                                graph,
                                SearchConfig(num_shards=k, seed=seed, seed_nodes=nodes,
                                             beam_width=beam),
                                partitioner,
                            )
                            stats = result.stats
                            out[f"{features}/{name}/k{k}/{nodes}/beam{beam}/seed{seed}"] = {
                                "stats": [stats.candidates_expanded,
                                          stats.candidates_pruned, stats.rounds],
                                "baseline": _cost(result.baseline),
                                "plans": [plan_row(p) for p in result.plans],
                            }
    return encode(out)


TABLES = {"golden_des.json": des_table, "golden_search.json": search_table}


def test_des_values_are_bit_identical_to_the_parent():
    assert_matches(des_table(), load("golden_des.json"))


def test_search_results_are_bit_identical_to_the_parent():
    assert_matches(search_table(), load("golden_search.json"))
