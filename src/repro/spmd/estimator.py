"""Cost estimation of partitioned graphs -> model-parallel speedup curves.

Converts a :class:`~repro.spmd.partitioner.PartitionedGraph` into per-core
compute seconds (accounting for tile imbalance and serial unpartitioned
ops) plus communication seconds on the model tile's X-line links, and from
that the Figure 9 speedup-vs-cores curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

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

#: fixed per-node cost (dispatch, fusion boundaries), seconds.
PER_OP_OVERHEAD = 2.0e-6


class CostPrefix(NamedTuple):
    """The running sums of one estimate, where a later one may resume.

    ``compute[i]`` / ``serial[i]`` are the sums before node ``i`` was
    priced, ``comm[j]`` / ``comm_bytes[j]`` the forward sums before comm
    op ``j``; each list ends with the final sum.  ``prices`` are the rates
    they were summed at (:func:`cost_prices`): a resume at other rates
    would mix two price lists in one total.
    """

    prices: tuple[float, ...]
    compute: list[float]
    serial: list[float]
    comm: list[float]
    comm_bytes: list[float]


@dataclass(frozen=True)
class PartitionCost:
    """Per-step cost of a partitioned graph on one model tile.

    ``prefix`` belongs to the plan this cost prices; equality and repr see
    only the four totals.
    """

    compute_seconds: float
    serial_seconds: float
    comm_seconds: float
    comm_bytes: float
    prefix: CostPrefix | None = field(default=None, compare=False, repr=False)

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


def cost_prices(
    mesh: TorusMesh,
    *,
    core_flops_rate: float | None = None,
    mxu_efficiency: float = 0.35,
    fwd_bwd_factor: float = FWD_BWD_FACTOR,
    per_op_overhead: float = PER_OP_OVERHEAD,
) -> tuple[float, ...]:
    """The rates :func:`estimate_cost` prices at: ``(core FLOP/s, HBM
    bytes/s per core, link bytes/s, link latency, fwd+bwd factor, per-op
    overhead)``."""
    if core_flops_rate is None:
        core_flops_rate = mesh.chip.per_core_matmul_flops * mxu_efficiency
    return (
        core_flops_rate,
        mesh.chip.hbm_bandwidth / mesh.chip.cores,
        mesh.link_bandwidth,
        mesh.chip.link_latency,
        fwd_bwd_factor,
        per_op_overhead,
    )


def estimate_cost(
    pg: PartitionedGraph,
    mesh: TorusMesh | None = None,
    *,
    core_flops_rate: float | None = None,
    mxu_efficiency: float = 0.35,
    fwd_bwd_factor: float = FWD_BWD_FACTOR,
    per_op_overhead: float = PER_OP_OVERHEAD,
    dtype_bytes: int | None = None,
    resume: tuple[PartitionCost, int] | None = None,
) -> PartitionCost:
    """Seconds per step for one partitioned model tile.

    ``per_op_overhead`` is a fixed per-node cost (dispatch, fusion
    boundaries) that does not shrink with partitioning; elementwise ops are
    charged as memory-bound (HBM) rather than MXU work.  HBM traffic is
    priced at each node's own ``dtype_bytes``; an explicit width must be
    consistent with the graph (see :func:`_check_dtype_consistent`).

    The result's ``prefix`` keeps the running sums before every node and
    comm op.  ``resume=(parent_cost, node_id)`` starts from
    ``parent_cost``'s sums before ``node_id`` and before comm op
    ``pg.comm_marks[node_id]``, and walks only what follows.  It is for
    ``pg = repartition(parent, node_id, ...)``, whose nodes and comm ops
    before those points are ``parent``'s, with ``parent_cost`` summed at
    the same :func:`cost_prices` (``Partitioner.extend`` checks both).
    The additions then happen in the order of a full walk, so every float
    is the full walk's.
    """
    _check_dtype_consistent(pg.graph, dtype_bytes)
    mesh = mesh if mesh is not None else single_pod()
    prices = cost_prices(
        mesh,
        core_flops_rate=core_flops_rate,
        mxu_efficiency=mxu_efficiency,
        fwd_bwd_factor=fwd_bwd_factor,
        per_op_overhead=per_op_overhead,
    )
    core_flops_rate, hbm_per_core, bw, alpha, _, _ = prices
    graph = pg.graph
    tables = graph.tables()
    if resume is None:
        start = mark = 0
        compute = serial = comm = comm_bytes = 0.0
        computes: list[float] = []
        serials: list[float] = []
        comms: list[float] = []
        comm_byte_sums: list[float] = []
    else:
        parent, start = resume
        prefix = parent.prefix
        mark = pg.comm_marks[start]
        compute, serial = prefix.compute[start], prefix.serial[start]
        comm, comm_bytes = prefix.comm[mark], prefix.comm_bytes[mark]
        computes, serials = prefix.compute[:start], prefix.serial[:start]
        comms, comm_byte_sums = prefix.comm[:mark], prefix.comm_bytes[:mark]
    flops_of, serial_nodes, shardings = tables.flops, pg.serial_nodes, pg.compute_shardings
    for node in graph.nodes[start:]:  # topological by construction
        computes.append(compute)
        serials.append(serial)
        flops = flops_of[node.id] * fwd_bwd_factor
        if flops == 0.0:
            continue
        serial += per_op_overhead
        if node.id in serial_nodes:
            serial += flops / core_flops_rate
            continue
        factor = _tile_factor(node, shardings[node.id])
        if node.op in ("elementwise", "add"):
            # Memory bound: read inputs + write output through HBM.
            traffic = 3.0 * tables.output_bytes[node.id] * fwd_bwd_factor
            compute += traffic * factor / hbm_per_core
        else:
            compute += flops * factor / core_flops_rate
    computes.append(compute)
    serials.append(serial)
    # Model-parallel groups sit on X-adjacent cores: the two cores of a chip
    # plus neighbor chips over ICI links.  Within-chip transfers are fast;
    # we charge the ICI link uniformly, which is conservative.
    k = pg.num_shards
    for op in pg.comm_ops[mark:]:
        comms.append(comm)
        comm_byte_sums.append(comm_bytes)
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
    comms.append(comm)
    comm_byte_sums.append(comm_bytes)
    # Backward pass roughly mirrors forward communication.
    return PartitionCost(
        compute_seconds=compute,
        serial_seconds=serial,
        comm_seconds=comm * 2.0,
        comm_bytes=comm_bytes * 2.0,
        prefix=CostPrefix(prices, computes, serials, comms, comm_byte_sums),
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
