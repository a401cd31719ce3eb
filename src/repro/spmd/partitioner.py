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

Every rule lives once, in :func:`_propagate`, which walks the nodes in id
order over small int layout codes held in lists indexed by node id.  A
:class:`PartitionedGraph` is that state; the :class:`Sharding` dicts and
:class:`CommOp` list readers see are views of it, built on first read, so
a search can score a layout without building any of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from repro.spmd.annotations import Sharding
from repro.spmd.ir import (
    CONV,
    GATHER,
    MATMUL,
    POINTWISE,
    REDUCE,
    SEED,
    TOPK,
    Graph,
)


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

    def __reduce__(self):
        return type(self), (str(self), self.nodes_visited), self.__dict__


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


#: Layout codes: how a partitioned graph holds each node's
#: :class:`Sharding` on its tile -- replicated, a pending partial sum, or
#: split along dimension ``d`` as ``SPLIT + d``.  ``SERIAL`` is a computed
#: layout only: replicated, run whole on every core because no rule
#: partitions the op (the Amdahl term the estimator charges serially).
SERIAL, REPLICATED, PARTIAL, SPLIT = -1, 0, 1, 2


def layout_code(sharding: Sharding) -> int:
    """The code of ``sharding`` (its shard count is the graph's)."""
    if sharding.partial:
        return PARTIAL
    return REPLICATED if sharding.dim is None else SPLIT + sharding.dim


def layout_sharding(code: int, num_shards: int) -> Sharding:
    """The interned :class:`Sharding` a layout code stands for."""
    if code >= SPLIT:
        return Sharding.split(num_shards, code - SPLIT)
    if code == PARTIAL:
        return Sharding.partial_sum(num_shards)
    return Sharding.replicate(num_shards)


@dataclass
class PartitionedGraph:
    """The result of partitioning: per-node layouts and induced comm.

    The state is what the propagation pass writes: lists indexed by node
    id of layout codes, ``layouts`` (the current layout of each value,
    updated when a partial is resolved) and ``computed`` (the layout each
    op computed under, what the cost estimator prices), the comm log as
    ``(kind, node_id, bytes_per_shard, steps)`` tuples, and ``comm_marks``
    (``len(comm)`` when each node's turn came: with it, the state the pass
    was in before any node can be rebuilt, :func:`repartition`).

    ``shardings``, ``compute_shardings``, ``comm_ops``, ``serial_nodes``
    and ``seeds`` are views of that state, built on first read: a search
    reads none of them for the layouts it discards.  Equality compares the
    state, which is equality of the views.
    """

    graph: Graph
    num_shards: int
    features: PartitionerFeatures
    seed_codes: dict[int, int]
    layouts: list[int]
    computed: list[int]
    comm: list[tuple[str, int, float, int]]
    comm_marks: list[int]

    @cached_property
    def shardings(self) -> dict[int, Sharding]:
        """Current layout of each value (updated when partials are resolved)."""
        k = self.num_shards
        return {i: layout_sharding(c, k) for i, c in enumerate(self.layouts)}

    @cached_property
    def compute_shardings(self) -> dict[int, Sharding]:
        """Layout each op *computed under* (what the cost estimator needs)."""
        k = self.num_shards
        return {i: layout_sharding(c, k) for i, c in enumerate(self.computed)}

    @cached_property
    def comm_ops(self) -> list[CommOp]:
        return [CommOp(*op) for op in self.comm]

    @cached_property
    def serial_nodes(self) -> set[int]:
        return {i for i, c in enumerate(self.computed) if c == SERIAL}

    @cached_property
    def seeds(self) -> dict[int, Sharding]:
        """The seed layouts this propagation started from."""
        k = self.num_shards
        return {i: layout_sharding(c, k) for i, c in self.seed_codes.items()}

    def comm_bytes(self) -> float:
        return sum(op[2] for op in self.comm)

    def comm_by_kind(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for kind, _, nbytes, _ in self.comm:
            out[kind] = out.get(kind, 0.0) + nbytes
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
        graph, num_shards, features,
        {node_id: layout_code(s) for node_id, s in seeds.items()}, [], [], [], [],
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
    if node_id in parent.seed_codes:
        raise ValueError(f"node {node_id} already has a seed")
    graph = parent.graph
    graph.node(node_id)  # raises ShapeError on unknown ids
    code = layout_code(sharding)
    if refused_at_seed(graph, parent.num_shards, node_id, code):
        raise PartitionInfeasible("sharded conv filters not supported", 0)
    return resume(parent, node_id, code)


def refused_at_seed(graph: Graph, num_shards: int, node_id: int, code: int) -> bool:
    """Whether seeding ``node_id`` with layout ``code`` fails before any
    node is walked: a split of an input/parameter some conv reads as its
    filter, on more than one shard."""
    return (
        code >= SPLIT
        and num_shards > 1
        and node_id in graph.tables().conv_filter_seeds
    )


def resume(parent: PartitionedGraph, node_id: int, code: int) -> PartitionedGraph:
    """:func:`repartition` for a seed known to be new, of the parent's shard
    count and not :func:`refused_at_seed` (a search's candidates are, by
    construction)."""
    graph = parent.graph
    mark = parent.comm_marks[node_id]
    layouts = parent.layouts[:node_id]
    computed = parent.computed
    for kind, op_node, _, _ in islice(parent.comm, mark, None):
        # The only rule that changes an *earlier* node's layout is the
        # all-reduce of a partial operand at first use; the ones logged
        # from ``node_id``'s turn on have not happened yet.
        if op_node < node_id and kind == "all_reduce":
            layouts[op_node] = computed[op_node]
    pg = PartitionedGraph(
        graph,
        parent.num_shards,
        parent.features,
        {**parent.seed_codes, node_id: code},
        layouts,
        computed[:node_id],
        parent.comm[:mark],
        parent.comm_marks[:node_id],
    )
    return _propagate(pg, node_id)


def _propagate(pg: PartitionedGraph, start: int) -> PartitionedGraph:
    """Visit the nodes from ``start`` on; ``pg`` holds the state before it.

    Every layout rule lives here, once, over layout codes.
    """
    graph = pg.graph
    end = len(graph.nodes)
    layouts, computed, comm, comm_marks = pg.layouts, pg.computed, pg.comm, pg.comm_marks
    num_shards = pg.num_shards
    if num_shards == 1:
        rest = end - start
        layouts += [REPLICATED] * rest
        computed += [REPLICATED] * rest
        comm_marks += [0] * rest
        return pg

    nodes = graph.nodes
    tables = graph.tables()
    kinds, inputs, output_bytes = tables.kinds, tables.inputs, tables.output_bytes
    seeds, features = pg.seed_codes, pg.features
    log = comm.append

    def resolve_partial(node_id: int) -> int:
        """All-reduce a partial value before a consumer that needs it."""
        log(("all_reduce", node_id, output_bytes[node_id], 1))
        layouts[node_id] = REPLICATED  # layout change only; compute ran as partial
        return REPLICATED

    partition_gather = features.partition_gather or features.gather_as_onehot_matmul
    halo_steps = 1 if features.optimized_halo_barriers else 2
    reshard_steps = 1 if features.minimize_reshards else 2

    for i in range(start, end):
        comm_marks.append(len(comm))
        kind = kinds[i]
        if kind == SEED:
            code = seeds.get(i, REPLICATED)

        elif kind == CONV:
            x_id, w_id = inputs[i]
            xs = layouts[x_id]
            if xs == PARTIAL:
                xs = resolve_partial(x_id)
            if layouts[w_id] != REPLICATED:
                raise PartitionInfeasible(
                    "sharded conv filters not supported", i - start + 1
                )
            if xs == SPLIT + 1 or xs == SPLIT + 2:  # spatial split
                kh, kw = nodes[i].attrs["kernel"]
                halo = ((kh if xs == SPLIT + 1 else kw) - 1) // 2
                if halo > 0:
                    x_node = nodes[x_id]
                    b, h, w, c = x_node.shape
                    row = (w * c) if xs == SPLIT + 1 else (h * c)
                    log(("halo", i, 2.0 * halo * row * b * x_node.dtype_bytes, halo_steps))
                code = xs
            elif xs == SPLIT:  # batch split: embarrassingly parallel
                code = SPLIT
            elif xs == SPLIT + 3:  # input channels = contracting dim
                code = PARTIAL
            else:
                code = REPLICATED

        elif kind == MATMUL:
            a_id, b_id = inputs[i]
            sa = layouts[a_id]
            if sa == PARTIAL:
                sa = resolve_partial(a_id)
            sb = layouts[b_id]
            if sb == PARTIAL:
                sb = resolve_partial(b_id)
            if sa == SPLIT + 1 or sb == SPLIT:
                # Contracting dimension sharded on either side: local slices
                # multiply, result is a partial sum.
                code = PARTIAL
            elif sa == SPLIT:
                code = SPLIT
            elif sb == SPLIT + 1:
                code = SPLIT + 1
            else:
                code = REPLICATED

        elif kind == POINTWISE:
            operands = inputs[i]
            for x_id in operands:
                if layouts[x_id] == PARTIAL:
                    resolve_partial(x_id)
            code = layouts[operands[0]]
            for other_id in operands[1:]:
                other = layouts[other_id]
                if other != code and other != REPLICATED and code != REPLICATED:
                    # Layout mismatch: reshard the second operand.
                    log(("reshard", other_id, output_bytes[other_id] / num_shards,
                         reshard_steps))
                elif code == REPLICATED and other != REPLICATED:
                    code = other

        elif kind == GATHER:
            (x_id,) = inputs[i]
            xs = layouts[x_id]
            if xs == PARTIAL:
                xs = resolve_partial(x_id)
            if partition_gather:
                # Partitioned (as one-hot matmuls on the MXU when enabled):
                # output rows split over cores.
                code = SPLIT
            else:
                # All-gather a sharded operand so a serial op sees all of it.
                if xs >= SPLIT:
                    log(("all_gather", x_id, output_bytes[x_id], 1))
                code = SERIAL

        elif kind == TOPK:
            (x_id,) = inputs[i]
            xs = layouts[x_id]
            if xs == PARTIAL:
                xs = resolve_partial(x_id)
            if features.partition_topk and xs != REPLICATED:
                # Local top-k then a tiny candidate exchange.
                node = nodes[i]
                log(("all_gather", i, float(node.attrs["k"]) * node.dtype_bytes, 1))
                code = REPLICATED
            else:
                if xs >= SPLIT:
                    log(("all_gather", x_id, output_bytes[x_id], 1))
                code = SERIAL

        elif kind == REDUCE:
            (x_id,) = inputs[i]
            if layouts[x_id] != REPLICATED:
                # Partial local reductions + a scalar all-reduce.
                log(("all_reduce", i, float(nodes[i].dtype_bytes), 1))
            code = REPLICATED

        else:
            raise PartitionInfeasible(
                f"no partitioning rule for op {nodes[i].op!r}", i - start + 1
            )

        computed.append(code)
        layouts.append(REPLICATED if code == SERIAL else code)

    return pg
