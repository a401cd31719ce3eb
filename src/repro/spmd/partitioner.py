"""Annotation-driven SPMD partitioning with communication insertion.

Given seed shardings (the "lightweight annotations" of Section 3.1) the
partitioner propagates layouts through the graph and records the
communication each op induces:

* conv2d over a spatially split activation -> **halo exchange**;
* matmul with a sharded contracting dimension -> **partial** output, and an
  **all-reduce** at first use;
* mismatched operand layouts -> **reshard**;
* ops without partitioning support -> **all-gather** the operand and run
  the op serially (replicated) — the Amdahl bottleneck the paper's XLA
  work removed for topk/gather/special convolutions (Section 4.5).

:class:`PartitionerFeatures` toggles reproduce the MLPerf v0.6 vs v0.7
compiler: ``V06_FEATURES`` lacks gather/topk partitioning and reshard
minimization; ``V07_FEATURES`` has them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from repro.spmd.annotations import Sharding
from repro.spmd.ir import Graph, Node


@dataclass(frozen=True)
class PartitionerFeatures:
    """Compiler capabilities (paper's v0.6 -> v0.7 delta, Section 4.5)."""

    partition_gather: bool = True
    partition_topk: bool = True
    gather_as_onehot_matmul: bool = True
    minimize_reshards: bool = True
    optimized_halo_barriers: bool = True


V06_FEATURES = PartitionerFeatures(
    partition_gather=False,
    partition_topk=False,
    gather_as_onehot_matmul=False,
    minimize_reshards=False,
    optimized_halo_barriers=False,
)
V07_FEATURES = PartitionerFeatures()


class PartitionInfeasible(NotImplementedError):
    """A layout the partitioner has no rule for.

    ``nodes_visited`` counts the nodes the failed pass had started on,
    the failing one included; a seed refused before the pass is 0.
    """

    def __init__(self, message: str, nodes_visited: int) -> None:
        super().__init__(message)
        self.nodes_visited = nodes_visited


@dataclass(frozen=True)
class CommOp:
    """A communication operation inserted by the partitioner.

    ``bytes_per_shard`` is the payload each core moves; ``steps`` the
    number of synchronization rounds it takes (barrier overhead).
    """

    kind: str  # 'halo' | 'all_reduce' | 'all_gather' | 'reshard'
    node_id: int
    bytes_per_shard: float
    steps: int = 1


@dataclass
class PartitionedGraph:
    """The result of partitioning: per-node layouts and induced comm."""

    graph: Graph
    num_shards: int
    features: PartitionerFeatures
    shardings: dict[int, Sharding] = field(default_factory=dict)
    """Current layout of each value (updated when partials are resolved)."""
    compute_shardings: dict[int, Sharding] = field(default_factory=dict)
    """Layout each op *computed under* (what the cost estimator needs)."""
    comm_ops: list[CommOp] = field(default_factory=list)
    serial_nodes: set[int] = field(default_factory=set)
    seeds: dict[int, Sharding] = field(default_factory=dict)
    """The seed layouts this propagation started from."""
    comm_marks: list[int] = field(default_factory=list)
    """``len(comm_ops)`` when each node's turn came: with it, the state the
    pass was in before any node can be rebuilt (:func:`repartition`)."""

    def sharding(self, node_id: int) -> Sharding:
        return self.shardings[node_id]

    def _set(self, node_id: int, sharding: Sharding) -> None:
        self.shardings[node_id] = sharding
        self.compute_shardings[node_id] = sharding

    def comm_bytes(self) -> float:
        return sum(c.bytes_per_shard for c in self.comm_ops)

    def comm_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for c in self.comm_ops:
            out[c.kind] = out.get(c.kind, 0.0) + c.bytes_per_shard
        return out


def _check_dtype_consistent(graph: Graph, dtype_bytes: int | None) -> None:
    """An explicit byte width must agree with every node's own dtype.

    ``None`` means "use per-node dtypes" and is always consistent; passing
    a width that silently contradicts the graph (the old hardcoded-2 bug,
    with f32 accumulators priced as bf16) is an error.
    """
    if dtype_bytes is None:
        return
    for node in graph.nodes:
        if node.dtype_bytes != dtype_bytes:
            raise ValueError(
                f"dtype_bytes={dtype_bytes} is inconsistent with node "
                f"{node.name!r} (dtype_bytes={node.dtype_bytes}); omit the "
                f"argument to use per-node dtypes"
            )


def partition(
    graph: Graph,
    seeds: dict[int, Sharding],
    num_shards: int,
    features: PartitionerFeatures = V07_FEATURES,
    dtype_bytes: int | None = None,
) -> PartitionedGraph:
    """Propagate shardings through ``graph`` and insert communication.

    The propagation pass behind :func:`repro.spmd.make_partitioner`, whose
    ``partition`` method also costs the result.

    ``seeds`` maps node ids (typically inputs/parameters) to layouts; all
    other inputs default to replicated.  Communication payloads are priced
    at each tensor's own ``dtype_bytes``; passing an explicit width that
    contradicts a node raises (dtype-consistency guard).
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    _check_dtype_consistent(graph, dtype_bytes)
    for node_id, sharding in seeds.items():
        if sharding.num_shards != num_shards:
            raise ValueError(
                f"seed for node {node_id} has {sharding.num_shards} shards, "
                f"partitioner uses {num_shards}"
            )
    pg = PartitionedGraph(
        graph=graph, num_shards=num_shards, features=features, seeds=dict(seeds)
    )
    return _propagate(pg, 0)


def repartition(
    parent: PartitionedGraph, node_id: int, sharding: Sharding
) -> PartitionedGraph:
    """``parent``'s propagation with one more seed, resumed at that node.

    Nodes are visited in id order and a node's rule reads only its inputs,
    so everything ``parent`` decided before ``node_id``'s turn holds for the
    new seed set too.  That state is rebuilt from ``parent`` (which is not
    modified) and the one pass continues from ``node_id``: the result
    equals ``partition(graph, {**parent.seeds, node_id: sharding}, ...)``
    field for field, for the cost of the nodes from ``node_id`` on.

    A split seed on an input/parameter some conv reads as its filter
    (``GraphTables.conv_filter_seeds``) is refused at once, with the error
    the pass would raise at that conv: ``parent`` propagated every other
    node without raising, and no rule rewrites a split layout.  At one
    shard every seed is ignored, so nothing is refused; a partial seed may
    be all-reduced by an earlier consumer, so it goes through the pass.
    """
    if sharding.num_shards != parent.num_shards:
        raise ValueError(
            f"seed for node {node_id} has {sharding.num_shards} shards, "
            f"partitioner uses {parent.num_shards}"
        )
    if node_id in parent.seeds:
        raise ValueError(f"node {node_id} already has a seed")
    parent.graph.node(node_id)  # raises ShapeError on unknown ids
    if (
        parent.num_shards > 1
        and sharding.dim is not None
        and node_id in parent.graph.tables().conv_filter_seeds
    ):
        raise PartitionInfeasible("sharded conv filters not supported", 0)
    mark = parent.comm_marks[node_id]
    shardings = dict(islice(parent.shardings.items(), node_id))
    for op in islice(parent.comm_ops, mark, None):
        # The only rule that changes an *earlier* node's layout is the
        # all-reduce of a partial operand at first use; the ones logged
        # from ``node_id``'s turn on have not happened yet.
        if op.kind == "all_reduce" and op.node_id < node_id:
            shardings[op.node_id] = parent.compute_shardings[op.node_id]
    pg = PartitionedGraph(
        graph=parent.graph,
        num_shards=parent.num_shards,
        features=parent.features,
        shardings=shardings,
        compute_shardings=dict(islice(parent.compute_shardings.items(), node_id)),
        comm_ops=parent.comm_ops[:mark],
        serial_nodes={n for n in parent.serial_nodes if n < node_id},
        seeds={**parent.seeds, node_id: sharding},
        comm_marks=parent.comm_marks[:node_id],
    )
    return _propagate(pg, node_id)


def _propagate(pg: PartitionedGraph, start: int) -> PartitionedGraph:
    """Visit the nodes from ``start`` on; ``pg`` holds the state before it."""
    graph, seeds, features = pg.graph, pg.seeds, pg.features
    num_shards = pg.num_shards
    if num_shards == 1:
        for node in graph.nodes[start:]:
            pg.comm_marks.append(0)
            pg._set(node.id, Sharding.replicate(1))
        return pg

    output_bytes = graph.tables().output_bytes
    comm_ops, comm_marks = pg.comm_ops, pg.comm_marks
    replicated = Sharding.replicate(num_shards)

    def resolve_partial(node_id: int) -> Sharding:
        """All-reduce a partial value before a consumer that needs it."""
        s = pg.shardings[node_id]
        if not s.partial:
            return s
        comm_ops.append(CommOp("all_reduce", node_id, output_bytes[node_id]))
        s = replicated
        pg.shardings[node_id] = s  # layout change only; compute ran as partial
        return s

    def gathered(node_id: int) -> None:
        """All-gather a sharded operand so a serial op can see all of it."""
        s = pg.shardings[node_id]
        if s.partial:
            resolve_partial(node_id)
            return
        if s.dim is not None:
            comm_ops.append(CommOp("all_gather", node_id, output_bytes[node_id]))

    reshard_steps = 1 if features.minimize_reshards else 2

    for node in graph.nodes[start:]:
        comm_marks.append(len(comm_ops))
        op = node.op
        if op in ("input", "parameter"):
            pg._set(node.id, seeds.get(node.id, replicated))
            continue

        if op == "conv2d":
            x_id, w_id = node.inputs
            xs = resolve_partial(x_id)
            ws = pg.shardings[w_id]
            if not ws.replicated:
                raise PartitionInfeasible(
                    "sharded conv filters not supported", node.id - start + 1
                )
            if xs.dim in (1, 2):  # spatial split
                kh, kw = node.attrs["kernel"]
                k_dim = kh if xs.dim == 1 else kw
                halo = (k_dim - 1) // 2
                if halo > 0:
                    x_node = graph.node(x_id)
                    b, h, w, c = x_node.shape
                    row = (w * c) if xs.dim == 1 else (h * c)
                    steps = 1 if features.optimized_halo_barriers else 2
                    comm_ops.append(
                        CommOp(
                            "halo",
                            node.id,
                            2.0 * halo * row * b * x_node.dtype_bytes,
                            steps=steps,
                        )
                    )
                pg._set(node.id, Sharding.split(num_shards, xs.dim))
            elif xs.dim == 0:  # batch split: embarrassingly parallel
                pg._set(node.id, Sharding.split(num_shards, 0))
            elif xs.dim == 3:  # input channels = contracting dim
                pg._set(node.id, Sharding.partial_sum(num_shards))
            else:
                pg._set(node.id, replicated)
            continue

        if op == "matmul":
            a_id, b_id = node.inputs
            sa = resolve_partial(a_id)
            sb = resolve_partial(b_id)
            if sa.dim == 1 or sb.dim == 0:
                # Contracting dimension sharded on either side: local slices
                # multiply, result is a partial sum.
                pg._set(node.id, Sharding.partial_sum(num_shards))
            elif sa.dim == 0:
                pg._set(node.id, Sharding.split(num_shards, 0))
            elif sb.dim == 1:
                pg._set(node.id, Sharding.split(num_shards, 1))
            else:
                pg._set(node.id, replicated)
            continue

        if op in ("elementwise", "add"):
            in_shardings = [resolve_partial(i) for i in node.inputs]
            chosen = in_shardings[0]
            for other_id, other in zip(node.inputs[1:], in_shardings[1:]):
                if other.dim != chosen.dim and not other.replicated and not chosen.replicated:
                    # Layout mismatch: reshard the second operand.
                    comm_ops.append(
                        CommOp(
                            "reshard",
                            other_id,
                            output_bytes[other_id] / num_shards,
                            steps=reshard_steps,
                        )
                    )
                elif chosen.replicated and not other.replicated:
                    chosen = other
            pg._set(node.id, chosen)
            continue

        if op == "gather":
            (x_id,) = node.inputs
            xs = resolve_partial(x_id)
            if features.partition_gather or features.gather_as_onehot_matmul:
                # Partitioned (as one-hot matmuls on the MXU when enabled):
                # output rows split over cores.
                pg._set(node.id, Sharding.split(num_shards, 0))
            else:
                gathered(x_id)
                pg.serial_nodes.add(node.id)
                pg._set(node.id, replicated)
            continue

        if op == "topk":
            (x_id,) = node.inputs
            xs = resolve_partial(x_id)
            if features.partition_topk and xs.dim is not None:
                # Local top-k then a tiny candidate exchange.
                k = node.attrs["k"]
                comm_ops.append(
                    CommOp("all_gather", node.id, float(k) * node.dtype_bytes)
                )
                pg._set(node.id, replicated)
            else:
                gathered(x_id)
                pg.serial_nodes.add(node.id)
                pg._set(node.id, replicated)
            continue

        if op == "reduce":
            (x_id,) = node.inputs
            xs = pg.shardings[x_id]
            if xs.partial or xs.dim is not None:
                # Partial local reductions + a scalar all-reduce.
                comm_ops.append(CommOp("all_reduce", node.id, float(node.dtype_bytes)))
            pg._set(node.id, replicated)
            continue

        raise PartitionInfeasible(
            f"no partitioning rule for op {op!r}", node.id - start + 1
        )

    return pg
