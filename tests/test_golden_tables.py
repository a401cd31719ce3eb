"""The bit-identity bar, written down.

``tests/data/golden_des.json`` and ``tests/data/golden_search.json`` hold
what the link-level DES, the ``overlap`` experiment and the partitioner
search returned **at the parent of PR 24**, every float as ``float.hex()``.
The DES admission path (``Channel``) and the search's scoring path changed
in that PR; the bar is that no simulated time, ranked plan or cost float
moved by one bit.  ``==`` on the hex strings, no tolerance.

Regenerate (only when a PR *means* to move a number, and says so)::

    PYTHONPATH=src python tests/test_golden_tables.py

The tables use nothing but entry points that exist on both sides of the
change, so the same command on a checkout of the parent wrote the files.
The Multipod rows (``multipod*``, ``peer/4096/*``, ``mixed/*``) came later,
written the same way on the parent of the change that simulates one ring
direction per symmetry class; every older row stayed identical.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from repro.comm.schedule import (
    simulate_degraded_all_gather,
    simulate_degraded_reduce_scatter,
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)
from repro.core.overlap import simulate_overlap_schedule
from repro.experiments.runner import EXPERIMENTS
from repro.hardware.rings import all_x_lines, all_y_rings, model_peer_ring, x_line, y_ring
from repro.hardware.topology import TorusMesh, multipod, slice_for_chips
from repro.resilience.faults import ChipFailure, FaultPlan, LinkFault, RetryPolicy
from repro.spmd import SearchConfig, make_partitioner, search_partitioning
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    ssd_graph,
    transformer_block_graph,
)

DATA = Path(__file__).parent / "data"

#: Not round numbers: the chunk size ``payload / n`` must not be exact.
PAYLOADS = (1.0e6, 7.3e6 + 1.0 / 3.0, float(2**26 + 1))


def _hex(value):
    return value.hex() if isinstance(value, float) else value


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
                    out[f"rings/{chips}/{family}/p{i}/{way}"] = seconds.hex()

    torus = TorusMesh(4, 4, wrap_x=True, wrap_y=True)
    line = TorusMesh(4, 4)
    for name, mesh in (("torus", torus), ("line", line)):
        ring = y_ring(mesh, 1)
        out[f"single/{name}/reduce_scatter"] = simulate_ring_reduce_scatter(
            mesh, ring, PAYLOADS[0]
        ).hex()
        out[f"single/{name}/all_gather_uni"] = simulate_ring_all_gather(
            mesh, ring, PAYLOADS[1], bidirectional=False
        ).hex()

    # Cross-pod optical links have their own latency (Figure 2).
    pods = multipod(2)
    out["single/multipod2/x_line"] = simulate_ring_reduce_scatter(
        pods, x_line(pods, 3), PAYLOADS[0]
    ).hex()

    # Contended model-peer rings: several logical rings queue on every X
    # link, and a chunk crosses ``mp`` links per step (one process each).
    for chips in (64, 256):
        mesh = slice_for_chips(chips)
        for mp in (2, 4):
            for rows, ys in (("row0", (0,)), ("all", range(mesh.y_size))):
                rings = [model_peer_ring(mesh, y, mp, p) for y in ys for p in range(mp)]
                seconds = simulate_ring_reduce_scatter(mesh, rings, PAYLOADS[1])
                out[f"peer/{chips}/mp{mp}/{rows}"] = seconds.hex()

    # Paper scale (Figure 4 on the 128x32 Multipod): Y torus rings, X lines
    # crossing pod boundaries, and every row's hop-over peer rings at once.
    for pods in (2, 4):
        mesh = multipod(pods)
        for family, rings in (("y", all_y_rings(mesh)), ("x", all_x_lines(mesh))):
            out[f"multipod{pods}/{family}"] = simulate_ring_reduce_scatter(
                mesh, rings, PAYLOADS[1]
            ).hex()
    mesh = multipod(4)
    for mp in (2, 4):
        rings = [model_peer_ring(mesh, y, mp, p) for y in range(mesh.y_size) for p in range(mp)]
        out[f"peer/4096/mp{mp}/all"] = simulate_ring_reduce_scatter(
            mesh, rings, PAYLOADS[2]
        ).hex()

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
        ).hex()

    def degraded(key, simulate, mesh, rings, plan, policy=None):
        result = simulate(mesh, rings, PAYLOADS[0], plan, policy=policy)
        out[f"degraded/{key}"] = {
            "seconds": result.seconds.hex(),
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
        "step": result.step_seconds.hex(),
        "exposed": result.exposed_comm_seconds.hex(),
        "trace": [
            [e.actor, e.name, e.start.hex(), e.duration.hex(), e.category]
            for e in result.trace.events
        ],
    }
    for t, table in enumerate(EXPERIMENTS["overlap"]()):
        for r, row in enumerate(table.rows):
            out[f"overlap/table{t}/row{r}"] = [_hex(v) for v in row]
    return out


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


def _cost(plan) -> list[str]:
    c = plan.cost
    return [c.compute_seconds.hex(), c.serial_seconds.hex(), c.comm_seconds.hex(),
            c.comm_bytes.hex()]


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
    """192 searches: 4 graphs x k x seed set x beam x seed x feature set."""
    out: dict[str, object] = {}
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
    return out


TABLES = {"golden_des.json": des_table, "golden_search.json": search_table}


def _assert_equal_to_golden(filename: str) -> None:
    golden = json.loads((DATA / filename).read_text())
    found = json.loads(json.dumps(TABLES[filename]()))  # tuples -> lists
    assert found.keys() == golden.keys()
    moved = {key: (golden[key], found[key]) for key in golden if found[key] != golden[key]}
    assert not moved, f"{len(moved)} of {len(golden)} entries moved, e.g. {next(iter(moved.items()))}"


def test_des_values_are_bit_identical_to_the_parent():
    _assert_equal_to_golden("golden_des.json")


def test_search_results_are_bit_identical_to_the_parent():
    _assert_equal_to_golden("golden_search.json")


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for filename, build in TABLES.items():
        rows = ",\n".join(
            f"{json.dumps(key)}: {json.dumps(value)}" for key, value in sorted(build().items())
        )
        (DATA / filename).write_text("{\n" + rows + "\n}\n")  # one case per line
        print(f"wrote {DATA / filename}")
