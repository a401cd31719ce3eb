"""A minimal static-shape tensor IR with FLOP and byte accounting.

Shapes follow the conventions:

* activations: ``(batch, height, width, channels)`` (NHWC) or
  ``(batch, features)``;
* conv filters: ``(kh, kw, cin, cout)``;
* matmul operands: ``(m, k) @ (k, n)``.

Each node knows its FLOPs (training = forward; the estimator applies the
forward/backward multiplier) and its output byte size; that is all the
partitioner and cost estimator need.

Every node carries an explicit ``dtype_bytes`` (defaulting to the graph's
``dtype_bytes``, bf16 = 2 unless overridden), so the partitioner's inserted
communication and the estimator's memory-bound accounting price the same
element width — a graph mixing f32 accumulators simply marks those nodes
with ``dtype_bytes=4`` instead of inheriting a silent bf16 assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.refuse import count


class ShapeError(ValueError):
    """Raised on inconsistent operand shapes."""


@dataclass(frozen=True)
class Node:
    """One operation in the graph."""

    id: int
    op: str
    inputs: tuple[int, ...]
    shape: tuple[int, ...]
    attrs: dict = field(default_factory=dict, hash=False, compare=False)
    name: str = ""
    dtype_bytes: int = 2

    @property
    def elements(self) -> int:
        return int(math.prod(self.shape)) if self.shape else 1

    def output_bytes(self) -> float:
        """Output size in bytes, at the node's own dtype."""
        return self.elements * self.dtype_bytes


#: Node kinds, one per partitioning rule (``GraphTables.kinds``): inputs
#: and parameters take their seed layout, elementwise ops and adds share the
#: pointwise rule; an op no rule covers is ``NO_RULE``.
NO_RULE, SEED, CONV, MATMUL, POINTWISE, GATHER, TOPK, REDUCE = range(-1, 7)
_KINDS = {
    "input": SEED, "parameter": SEED, "conv2d": CONV, "matmul": MATMUL,
    "elementwise": POINTWISE, "add": POINTWISE, "gather": GATHER,
    "topk": TOPK, "reduce": REDUCE,
}


@dataclass(frozen=True)
class GraphTables:
    """What every candidate layout of one graph reads, by node id.

    Each field is a pure function of the graph's nodes, never of a layout,
    a tile size, a feature set or a price.  ``kinds`` and ``inputs`` are
    what the propagation pass dispatches on and reads.
    ``conv_filter_seeds`` holds the input/parameter nodes some ``conv2d``
    reads as its filter: a split seed there is refused before propagation
    (:func:`repro.spmd.partitioner.repartition`).
    """

    flops: tuple[float, ...]
    output_bytes: tuple[float, ...]
    kinds: tuple[int, ...]
    inputs: tuple[tuple[int, ...], ...]
    ids_by_name: dict[str, int]
    conv_filter_seeds: frozenset[int]


class Graph:
    """A tensor program under construction (SSA, topologically ordered)."""

    def __init__(self, name: str = "graph", dtype_bytes: int = 2) -> None:
        self.name = name
        self.dtype_bytes = count("dtype_bytes", dtype_bytes)
        self.nodes: list[Node] = []
        self._tables: GraphTables | None = None

    def node(self, node_id: int) -> Node:
        if not 0 <= node_id < len(self.nodes):
            raise ShapeError(f"unknown node id {node_id}")
        return self.nodes[node_id]

    def _add(self, op: str, inputs: tuple[int, ...], shape: tuple[int, ...],
             attrs: dict | None = None, name: str = "",
             dtype_bytes: int | None = None) -> int:
        for i in inputs:
            if not 0 <= i < len(self.nodes):
                raise ShapeError(f"unknown input id {i}")
        node = Node(
            id=len(self.nodes), op=op, inputs=inputs, shape=tuple(shape),
            attrs=attrs or {}, name=name or f"{op}_{len(self.nodes)}",
            dtype_bytes=self.dtype_bytes if dtype_bytes is None else dtype_bytes,
        )
        self.nodes.append(node)
        self._tables = None
        return node.id

    # --- builders -------------------------------------------------------

    def input(self, shape: tuple[int, ...], name: str = "input",
              dtype_bytes: int | None = None) -> int:
        return self._add("input", (), shape, name=name, dtype_bytes=dtype_bytes)

    def parameter(self, shape: tuple[int, ...], name: str = "param",
                  dtype_bytes: int | None = None) -> int:
        return self._add("parameter", (), shape, name=name, dtype_bytes=dtype_bytes)

    def conv2d(self, x: int, w: int, stride: int = 1, name: str = "") -> int:
        xs, ws = self.node(x).shape, self.node(w).shape
        if len(xs) != 4 or len(ws) != 4:
            raise ShapeError(f"conv2d wants NHWC x and KKIO w, got {xs}, {ws}")
        b, h, wd, cin = xs
        kh, kw, win, cout = ws
        if win != cin:
            raise ShapeError(f"conv2d channel mismatch: {cin} vs {win}")
        oh = max(1, h // stride)
        ow = max(1, wd // stride)
        return self._add(
            "conv2d", (x, w), (b, oh, ow, cout),
            attrs={"kernel": (kh, kw), "stride": stride}, name=name,
        )

    def matmul(self, a: int, b: int, name: str = "") -> int:
        sa, sb = self.node(a).shape, self.node(b).shape
        if len(sa) != 2 or len(sb) != 2 or sa[1] != sb[0]:
            raise ShapeError(f"matmul mismatch: {sa} @ {sb}")
        return self._add("matmul", (a, b), (sa[0], sb[1]), name=name)

    def elementwise(self, x: int, op: str = "relu", name: str = "") -> int:
        return self._add("elementwise", (x,), self.node(x).shape,
                         attrs={"fn": op}, name=name)

    def add(self, a: int, b: int, name: str = "") -> int:
        sa, sb = self.node(a).shape, self.node(b).shape
        if sa != sb:
            raise ShapeError(f"add shape mismatch: {sa} vs {sb}")
        return self._add("add", (a, b), sa, name=name)

    def gather(self, x: int, num_indices: int, slice_elems: int, name: str = "") -> int:
        """Non-contiguous gather (ROIAlign-style): rows from a table."""
        if num_indices < 1 or slice_elems < 1:
            raise ShapeError("gather sizes must be positive")
        return self._add(
            "gather", (x,), (num_indices, slice_elems),
            attrs={"num_indices": num_indices}, name=name,
        )

    def topk(self, x: int, k: int, name: str = "") -> int:
        xs = self.node(x).shape
        if not xs or k < 1 or k > xs[-1]:
            raise ShapeError(f"topk k={k} invalid for shape {xs}")
        return self._add("topk", (x,), xs[:-1] + (k,), attrs={"k": k}, name=name)

    def reduce(self, x: int, name: str = "", dtype_bytes: int | None = None) -> int:
        """Full reduction to a scalar (losses, norms — often f32 accumulated)."""
        return self._add("reduce", (x,), (), name=name, dtype_bytes=dtype_bytes)

    def softmax(self, x: int, name: str = "") -> int:
        return self._add("elementwise", (x,), self.node(x).shape,
                         attrs={"fn": "softmax"}, name=name)

    # --- accounting -----------------------------------------------------

    def node_flops(self, node: Node) -> float:
        """Forward FLOPs of one node."""
        if node.op == "conv2d":
            b, oh, ow, cout = node.shape
            kh, kw = node.attrs["kernel"]
            cin = self.node(node.inputs[0]).shape[3]
            return 2.0 * b * oh * ow * cout * kh * kw * cin
        if node.op == "matmul":
            m, n = node.shape
            k = self.node(node.inputs[0]).shape[1]
            return 2.0 * m * k * n
        if node.op in ("elementwise", "add"):
            return float(node.elements)
        if node.op == "gather":
            return float(node.elements)  # address generation + copy
        if node.op == "topk":
            src = self.node(node.inputs[0])
            n = src.shape[-1]
            return float(src.elements) * max(1.0, math.log2(max(2, n)))
        if node.op == "reduce":
            return float(self.node(node.inputs[0]).elements)
        return 0.0

    def tables(self) -> GraphTables:
        """Per-node FLOPs, output bytes, rule kinds and inputs, the name -> id
        map and the conv-filter seeds.

        Nodes are immutable and only ever appended, so the tables are built
        on first use and dropped by the next ``_add``: a search scoring
        thousands of layouts of one graph pays for them once.
        """
        tables = self._tables
        if tables is None:
            nodes = self.nodes
            tables = self._tables = GraphTables(
                flops=tuple(self.node_flops(n) for n in nodes),
                output_bytes=tuple(n.output_bytes() for n in nodes),
                kinds=tuple(_KINDS.get(n.op, NO_RULE) for n in nodes),
                inputs=tuple(n.inputs for n in nodes),
                ids_by_name={n.name: n.id for n in nodes},
                conv_filter_seeds=frozenset(
                    n.inputs[1] for n in nodes
                    if n.op == "conv2d"
                    and nodes[n.inputs[1]].op in ("input", "parameter")
                ),
            )
        return tables

    def topological(self) -> list[Node]:
        """Nodes are appended in topological order by construction."""
        return list(self.nodes)
