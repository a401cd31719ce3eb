"""Cost estimation of partitioned graphs -> model-parallel speedup curves.

Converts a :class:`~repro.spmd.partitioner.PartitionedGraph` into per-core
compute seconds (accounting for tile imbalance and serial unpartitioned
ops) plus communication seconds on the model tile's X-line links, and from
that the Figure 9 speedup-vs-cores curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hardware.topology import TorusMesh, single_pod
from repro.spmd.annotations import Sharding
from repro.spmd.ir import Node
from repro.spmd.partitioner import (
    PartitionedGraph,
    PartitionerFeatures,
    V07_FEATURES,
    _check_dtype_consistent,
    partition,
)

#: forward+backward multiplier applied to forward FLOPs.
FWD_BWD_FACTOR = 3.0


@dataclass(frozen=True)
class PartitionCost:
    """Per-step cost of a partitioned graph on one model tile."""

    compute_seconds: float
    serial_seconds: float
    comm_seconds: float
    comm_bytes: float

    @property
    def total_seconds(self) -> float:
        return self.compute_seconds + self.serial_seconds + self.comm_seconds

    @property
    def comm_fraction(self) -> float:
        total = self.total_seconds
        return self.comm_seconds / total if total > 0 else 0.0


def _granularity(node: Node, dim: int) -> int:
    """Hardware tile granularity along a sharded dimension.

    The TPU vector unit processes activations in 8-row sublanes and the MXU
    is a 128x128 systolic array: tiles smaller than the granule pad up to
    it, so splitting a dimension below the granule stops paying off — the
    "inefficiencies from smaller dimensions after partitioning" of
    Section 5.
    """
    if node.op == "conv2d" and dim in (1, 2):
        return 8
    if node.op == "matmul":
        return 128
    return 1


def _tile_factor(node: Node, sharding: Sharding) -> float:
    """Fraction of the node's FLOPs the *slowest* core executes.

    A sharded contracting dimension (``partial``) splits work evenly; a
    split output dimension of size ``s`` over ``k`` cores gives the largest
    tile ``ceil(s/k)``, padded to the hardware granule — the load imbalance
    and small-dimension inefficiency the paper calls out for SSD.
    """
    if sharding.partial:
        return 1.0 / sharding.num_shards
    if sharding.dim is None:
        return 1.0
    if sharding.dim >= len(node.shape):
        return 1.0 / sharding.num_shards
    s = node.shape[sharding.dim]
    k = sharding.num_shards
    if s <= 0:
        return 1.0
    granule = _granularity(node, sharding.dim)
    largest = math.ceil(s / k)
    padded = min(s, math.ceil(largest / granule) * granule)
    return padded / s


def estimate_cost(
    pg: PartitionedGraph,
    mesh: TorusMesh | None = None,
    *,
    core_flops_rate: float | None = None,
    mxu_efficiency: float = 0.35,
    fwd_bwd_factor: float = FWD_BWD_FACTOR,
    per_op_overhead: float = 2.0e-6,
    dtype_bytes: int | None = None,
) -> PartitionCost:
    """Seconds per step for one partitioned model tile.

    ``per_op_overhead`` is a fixed per-node cost (dispatch, fusion
    boundaries) that does not shrink with partitioning; elementwise ops are
    charged as memory-bound (HBM) rather than MXU work.  HBM traffic is
    priced at each node's own ``dtype_bytes``; an explicit width must be
    consistent with the graph (see :func:`_check_dtype_consistent`).
    """
    _check_dtype_consistent(pg.graph, dtype_bytes)
    mesh = mesh if mesh is not None else single_pod()
    if core_flops_rate is None:
        core_flops_rate = mesh.chip.per_core_matmul_flops * mxu_efficiency
    hbm_per_core = mesh.chip.hbm_bandwidth / mesh.chip.cores
    graph = pg.graph
    tables = graph.tables()
    compute = 0.0
    serial = 0.0
    for node in graph.topological():
        flops = tables.flops[node.id] * fwd_bwd_factor
        if flops == 0.0:
            continue
        serial += per_op_overhead
        if node.id in pg.serial_nodes:
            serial += flops / core_flops_rate
            continue
        factor = _tile_factor(node, pg.compute_shardings[node.id])
        if node.op in ("elementwise", "add"):
            # Memory bound: read inputs + write output through HBM.
            traffic = 3.0 * tables.output_bytes[node.id] * fwd_bwd_factor
            compute += traffic * factor / hbm_per_core
        else:
            compute += flops * factor / core_flops_rate
    comm = 0.0
    comm_bytes = 0.0
    # Model-parallel groups sit on X-adjacent cores: the two cores of a chip
    # plus neighbor chips over ICI links.  Within-chip transfers are fast;
    # we charge the ICI link uniformly, which is conservative.
    bw = mesh.link_bandwidth
    alpha = mesh.chip.link_latency
    k = pg.num_shards
    for op in pg.comm_ops:
        comm_bytes += op.bytes_per_shard
        if op.kind == "halo":
            # Both boundary transfers overlap on full-duplex links.
            comm += op.steps * (alpha + (op.bytes_per_shard / 2.0) / bw)
        elif op.kind in ("all_reduce", "all_gather"):
            frac = (k - 1) / k if k > 1 else 0.0
            phases = 2.0 if op.kind == "all_reduce" else 1.0
            comm += op.steps * (phases * frac * op.bytes_per_shard / bw
                                + (k - 1) * alpha)
        elif op.kind == "reshard":
            comm += op.steps * (alpha + op.bytes_per_shard / bw)
        else:  # pragma: no cover - exhaustive kinds
            raise ValueError(f"unknown comm op kind {op.kind!r}")
    # Backward pass roughly mirrors forward communication.
    comm *= 2.0
    comm_bytes *= 2.0
    return PartitionCost(
        compute_seconds=compute,
        serial_seconds=serial,
        comm_seconds=comm,
        comm_bytes=comm_bytes,
    )


def model_parallel_speedup(
    build_graph,
    seed_fn,
    num_cores_list: list[int],
    *,
    features: PartitionerFeatures = V07_FEATURES,
    mesh: TorusMesh | None = None,
    mxu_efficiency: float = 0.35,
    dtype_bytes: int | None = None,
) -> dict[int, float]:
    """Speedup over 1 core for each model-parallel tile size.

    ``build_graph()`` returns a fresh :class:`~repro.spmd.ir.Graph`;
    ``seed_fn(graph, k)`` returns the seed shardings for ``k`` cores.
    This drives Figure 9.
    """
    if any(k < 1 for k in num_cores_list):
        raise ValueError("core counts must be >= 1")
    graph1 = build_graph()
    base = estimate_cost(
        partition(graph1, {}, 1, features, dtype_bytes),
        mesh,
        mxu_efficiency=mxu_efficiency,
    ).total_seconds
    out: dict[int, float] = {}
    for k in num_cores_list:
        graph = build_graph()
        pg = partition(graph, seed_fn(graph, k), k, features, dtype_bytes)
        cost = estimate_cost(pg, mesh, mxu_efficiency=mxu_efficiency)
        out[k] = base / cost.total_seconds
    return out
