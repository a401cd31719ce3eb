"""Cost estimation of partitioned graphs on one model tile.

Prices a :class:`~repro.spmd.partitioner.PartitionedGraph` as per-core
compute seconds (accounting for tile imbalance and serial unpartitioned
ops) plus communication seconds on the model tile's X-line links.  The
one caller is :class:`~repro.spmd.plan.Partitioner`: ``partition`` prices
a whole graph (Figure 9's speedup curves too), ``extend`` resumes from a
parent plan's prefix sums.

Every estimate sums through one loop, :func:`price_walk`; it looks node
prices up in a :class:`PriceTable` that one call (one search, one
``partition`` or ``extend``) builds and fills per (node, layout code) on
first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from repro.comm.cost import all_gather_time, point_to_point_time, ring_all_reduce_time
from repro.hardware.topology import TorusMesh
from repro.spmd.annotations import Sharding
from repro.spmd.ir import POINTWISE, Graph, Node
from repro.spmd.partitioner import SERIAL, PartitionedGraph, layout_sharding

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

    def totals(self) -> tuple[float, float, float, float]:
        """Compute, serial and comm seconds and comm bytes of one step:
        the final sums, comm doubled (the backward pass roughly mirrors the
        forward communication)."""
        return (
            self.compute[-1], self.serial[-1], self.comm[-1] * 2.0, self.comm_bytes[-1] * 2.0
        )


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

    @classmethod
    def of(cls, prefix: CostPrefix) -> "PartitionCost":
        """The cost whose running sums ``prefix`` holds."""
        return cls(*prefix.totals(), prefix=prefix)

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


def cost_prices(mesh: TorusMesh, *, mxu_efficiency: float) -> tuple[float, ...]:
    """The rates a :class:`~repro.spmd.plan.Partitioner` prices at:
    ``(core FLOP/s, HBM bytes/s per core, link bytes/s, link latency,
    fwd+bwd factor, per-op overhead)``."""
    return (
        mesh.chip.per_core_matmul_flops * mxu_efficiency,
        mesh.chip.hbm_bandwidth / mesh.chip.cores,
        mesh.link_bandwidth,
        mesh.chip.link_latency,
        FWD_BWD_FACTOR,
        PER_OP_OVERHEAD,
    )


class PriceTable:
    """The price of each (node, layout code) of one graph on one tile, at
    one set of :func:`cost_prices` rates.

    Built per call -- one search, one ``Partitioner.partition`` /
    ``extend`` -- and filled on first use, so :func:`_tile_factor` and
    the FLOPs (or HBM traffic) quotient run at
    most once per pair however many layouts of the graph the call prices.
    It depends on the tile size and the rates, so nothing may keep it past
    the call that built it.  ``rows[i]`` is ``None`` for a node with no
    work (it is not charged at all), else the prices of node ``i`` met so
    far by layout code; ``comm_rows`` prices the comm ops met, by (kind, bytes).
    """

    def __init__(self, graph: Graph, num_shards: int, prices: tuple[float, ...]) -> None:
        self.graph = graph
        self.num_shards = num_shards
        self.prices = prices
        fwd_bwd_factor = prices[4]
        #: forward+backward FLOPs of each node
        self.work = [flops * fwd_bwd_factor for flops in graph.tables().flops]
        self.rows: list[dict[int, float] | None] = [
            None if work == 0.0 else {} for work in self.work
        ]
        self.comm_rows: dict[tuple[str, float], float] = {}

    def price(self, node_id: int, code: int) -> float:
        """Seconds node ``node_id`` adds to the serial sum (``SERIAL``: run
        whole, on one core's worth of MXU) or to the compute sum (any other
        code: the slowest core's tile), remembered for the next lookup."""
        core_flops_rate, hbm_per_core, _, _, fwd_bwd_factor, _ = self.prices
        flops = self.work[node_id]
        if code == SERIAL:
            seconds = flops / core_flops_rate
        else:
            graph = self.graph
            factor = _tile_factor(
                graph.nodes[node_id], layout_sharding(code, self.num_shards)
            )
            tables = graph.tables()
            if tables.kinds[node_id] == POINTWISE:
                # Memory bound: read inputs + write output through HBM.
                traffic = 3.0 * tables.output_bytes[node_id] * fwd_bwd_factor
                seconds = traffic * factor / hbm_per_core
            else:
                seconds = flops * factor / core_flops_rate
        self.rows[node_id][code] = seconds
        return seconds


def comm_op_seconds(
    kind: str, nbytes: float, num_shards: int, bandwidth: float, latency: float
) -> float:
    """One comm op's seconds on a ``num_shards`` tile, by :mod:`repro.comm.cost`: an
    open X line, within-chip transfers charged at the ICI rate (conservative)."""
    if kind == "all_reduce":
        return ring_all_reduce_time(num_shards, nbytes, bandwidth, latency, closed=False)
    if kind == "all_gather":
        return all_gather_time(num_shards, nbytes, bandwidth, latency, closed=False)
    if kind == "halo":
        nbytes /= 2.0  # both boundary transfers overlap on full-duplex links
    elif kind != "reshard":
        raise ValueError(f"unknown comm op kind {kind!r}")
    return point_to_point_time(nbytes, bandwidth, latency)


def check_resumable(prefix: CostPrefix | None, prices: tuple[float, ...]) -> None:
    """Refuse to resume sums that do not exist or were summed at other
    rates: the result would mix two price lists in one total."""
    if prefix is None:
        raise ValueError("the parent cost keeps no prefix sums to resume from")
    if prefix.prices != prices:
        raise ValueError(
            "the parent cost was priced under a different mesh, MXU efficiency "
            "or rate"
        )


def price_walk(
    pg: PartitionedGraph,
    table: PriceTable,
    resume: tuple[CostPrefix, int] | None = None,
) -> CostPrefix:
    """The one accumulation loop: sum ``pg``'s node and comm-op prices.

    ``resume=(parent, start)`` is for ``pg`` the
    :func:`~repro.spmd.partitioner.repartition` of a plan at ``start``,
    whose prefix sums ``parent`` were summed at the table's rates: the node
    sums start from ``parent``'s sums before ``start`` and the comm sums
    from its sums before comm op ``pg.comm_marks[start]``, and only what
    follows is walked.  The additions happen one node at a time in node
    order, then one comm op at a time in log order, as in a walk over the
    whole graph, so every float is the whole walk's.
    """
    _, _, bw, alpha, _, per_op_overhead = table.prices
    comm_rows, k = table.comm_rows, table.num_shards
    if resume is None:
        start = mark = 0
        compute = serial = comm = comm_bytes = 0.0
        computes, serials, comms, comm_byte_sums = [], [], [], []
    else:
        parent, start = resume
        mark = pg.comm_marks[start]
        compute, serial = parent.compute[start], parent.serial[start]
        comm, comm_bytes = parent.comm[mark], parent.comm_bytes[mark]
        computes, serials = parent.compute[:start], parent.serial[:start]
        comms, comm_byte_sums = parent.comm[:mark], parent.comm_bytes[:mark]
    rows, computed, price = table.rows, pg.computed, table.price
    for i in range(start, len(rows)):  # topological by construction
        computes.append(compute)
        serials.append(serial)
        row = rows[i]
        if row is None:
            continue
        serial += per_op_overhead
        code = computed[i]
        seconds = row.get(code)
        if seconds is None:
            seconds = price(i, code)
        if code == SERIAL:
            serial += seconds
        else:
            compute += seconds
    computes.append(compute)
    serials.append(serial)
    for kind, _, nbytes, steps in islice(pg.comm, mark, None):
        comms.append(comm)
        comm_byte_sums.append(comm_bytes)
        comm_bytes += nbytes
        seconds = comm_rows.get((kind, nbytes))
        if seconds is None:
            seconds = comm_rows[kind, nbytes] = comm_op_seconds(kind, nbytes, k, bw, alpha)
        comm += steps * seconds
    comms.append(comm)
    comm_byte_sums.append(comm_bytes)
    return CostPrefix(table.prices, computes, serials, comms, comm_byte_sums)
