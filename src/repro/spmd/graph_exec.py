"""Bit-exact execution of partition plans on a :class:`VirtualMesh`.

The partitioner search needs ground truth: a winning
:class:`~repro.spmd.plan.PartitionPlan` must compute *the same numbers* as
the unsharded graph, not merely model well.  This module executes small IR
graphs two ways —

* :func:`execute_reference` — unsharded numpy, one array per node;
* :func:`execute_plan` — sharded, mirroring the partitioner's propagation
  op by op: halo-exchanged spatial convolutions
  (:func:`~repro.spmd.spatial_exec.spatial_conv2d`), contracting-dim
  matmuls producing partial sums resolved by *real* ring all-reduces on a
  :class:`~repro.runtime.mesh.VirtualMesh`, one-hot-matmul gathers
  (:func:`~repro.spmd.gather_exec.sharded_onehot_gather`) and distributed
  top-k (:func:`~repro.spmd.gather_exec.distributed_topk`)

— and :func:`validate_plan` compares every node bit-for-bit.

Exactness strategy: inputs are *integer-valued* float64 tensors (see
:func:`make_inputs`), so every sum any execution order produces is exact
in double precision (magnitudes stay far below 2**53) and reordering
(sharded partial sums + all-reduce vs. one dense contraction) cannot
change a single bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.comm.halo import conv_halo_rows
from repro.runtime.mesh import VirtualMesh
from repro.seeding import derive_subseed
from repro.spmd.gather_exec import distributed_topk, sharded_onehot_gather, topk_direct
from repro.spmd.ir import Graph, Node
from repro.spmd.plan import PartitionPlan
from repro.spmd.spatial_exec import conv2d_direct, spatial_conv2d


class ExecutionUnsupported(NotImplementedError):
    """The graph uses an op/config the small-scale executor cannot run."""


# --- deterministic inputs --------------------------------------------------


def _rng(seed: int, *path: str) -> np.random.Generator:
    return np.random.default_rng(derive_subseed(seed, "graph_exec", *path))


def make_inputs(graph: Graph, seed: int = 0) -> dict[int, np.ndarray]:
    """Integer-valued float64 payloads for every input/parameter node.

    Small integer magnitudes keep every downstream sum exact in f64, which
    is what makes sharded-vs-replicated comparison *bit*-exact rather than
    tolerance-based.
    """
    out: dict[int, np.ndarray] = {}
    for node in graph.nodes:
        if node.op in ("input", "parameter"):
            rng = _rng(seed, graph.name, node.name)
            out[node.id] = rng.integers(-4, 5, size=node.shape).astype(np.float64)
    return out


def _gather_table(graph: Graph, node: Node, seed: int) -> np.ndarray:
    """The lookup table an IR ``gather`` reads (deterministic per node)."""
    num_indices = node.attrs["num_indices"]
    slice_elems = node.shape[1]
    rng = _rng(seed, graph.name, node.name, "table")
    return rng.integers(0, 8, size=(2 * num_indices, slice_elems)).astype(np.float64)


def _gather_ids(x_full: np.ndarray, num_indices: int, num_rows: int) -> np.ndarray:
    """Row ids derived from the (integer-valued) gather operand."""
    flat = np.abs(x_full).ravel().astype(np.int64)
    if flat.size == 0:
        flat = np.zeros(1, dtype=np.int64)
    reps = -(-num_indices // flat.size)
    return (np.tile(flat, reps)[:num_indices]) % num_rows


# --- reference (unsharded) execution ---------------------------------------


def execute_reference(
    graph: Graph, inputs: dict[int, np.ndarray], seed: int = 0
) -> dict[int, np.ndarray]:
    """Run the graph unsharded; one full array per node id."""
    vals: dict[int, np.ndarray] = {}
    for node in graph.topological():
        if node.op in ("input", "parameter"):
            vals[node.id] = np.asarray(inputs[node.id], dtype=np.float64)
        elif node.op == "conv2d":
            if node.attrs["stride"] != 1:
                raise ExecutionUnsupported("executor supports stride-1 convs only")
            x, w = vals[node.inputs[0]], vals[node.inputs[1]]
            vals[node.id] = conv2d_direct(x, w)
        elif node.op == "matmul":
            vals[node.id] = vals[node.inputs[0]] @ vals[node.inputs[1]]
        elif node.op == "elementwise":
            vals[node.id] = _apply_fn(node, vals[node.inputs[0]])
        elif node.op == "add":
            vals[node.id] = vals[node.inputs[0]] + vals[node.inputs[1]]
        elif node.op == "gather":
            table = _gather_table(graph, node, seed)
            x = vals[node.inputs[0]]
            ids = _gather_ids(x, node.attrs["num_indices"], table.shape[0])
            vals[node.id] = table[ids]
        elif node.op == "topk":
            vals[node.id] = _topk_full(node, vals[node.inputs[0]])
        elif node.op == "reduce":
            vals[node.id] = np.asarray(np.sum(vals[node.inputs[0]]))
        else:  # pragma: no cover - IR is closed over these ops
            raise ExecutionUnsupported(f"no executor for op {node.op!r}")
    return vals


def _apply_fn(node: Node, x: np.ndarray) -> np.ndarray:
    fn = node.attrs.get("fn", "identity")
    if fn == "relu":
        return np.maximum(x, 0.0)
    if fn == "identity":
        return np.array(x, copy=True)
    raise ExecutionUnsupported(f"elementwise fn {fn!r} is not integer-exact")


def _topk_full(node: Node, x: np.ndarray) -> np.ndarray:
    if int(np.prod(x.shape[:-1], initial=1)) != 1:
        raise ExecutionUnsupported("topk executor wants leading dims of size 1")
    v, _ = topk_direct(x.ravel(), node.attrs["k"])
    return v.reshape(node.shape)


# --- sharded values --------------------------------------------------------


@dataclass
class _Val:
    """One value during sharded execution.

    ``kind``: ``'rep'`` (full array), ``'split'`` (``parts`` along ``dim``)
    or ``'partial'`` (``parts`` are full-shape partial sums pending an
    all-reduce) — the executable twin of :class:`~repro.spmd.annotations.Sharding`.
    """

    kind: str
    dim: int | None = None
    parts: list[np.ndarray] = field(default_factory=list)
    full: np.ndarray | None = None


def _split_bounds(size: int, k: int) -> list[tuple[int, int]]:
    """XLA-style ceil/floor split of ``size`` into ``k`` contiguous ranges."""
    base, extra = divmod(size, k)
    bounds = []
    lo = 0
    for i in range(k):
        n = base + (1 if i < extra else 0)
        bounds.append((lo, lo + n))
        lo += n
    return bounds


def _split_array(arr: np.ndarray, k: int, dim: int) -> list[np.ndarray]:
    slicer: list[slice] = [slice(None)] * arr.ndim
    parts = []
    for lo, hi in _split_bounds(arr.shape[dim], k):
        slicer[dim] = slice(lo, hi)
        parts.append(arr[tuple(slicer)])
    return parts


class _Exec:
    """Sharded execution state: values + the mesh doing the collectives."""

    def __init__(self, graph: Graph, k: int, mesh: VirtualMesh | None) -> None:
        self.graph = graph
        self.k = k
        self.mesh = mesh if mesh is not None else VirtualMesh(k, 1)
        if self.mesh.num_devices != k:
            raise ValueError(
                f"mesh has {self.mesh.num_devices} devices, plan wants {k}"
            )
        self.vals: dict[int, _Val] = {}
        self._n_reduces = 0

    def all_reduce(self, parts: list[np.ndarray]) -> np.ndarray:
        """Sum ``parts`` with a real mesh collective (f64 policy = exact)."""
        name = f"graph_exec_ar_{self._n_reduces}"
        self._n_reduces += 1
        for device, p in zip(self.mesh.devices(), parts):
            self.mesh.put(name, device, p)
        self.mesh.all_reduce(name, dtype_policy="f64")
        return np.array(self.mesh.get(name, next(iter(self.mesh.devices()))))

    def to_full(self, v: _Val) -> np.ndarray:
        """Materialize the full value (lossless for rep/split; partial
        values go through the mesh all-reduce)."""
        if v.kind == "rep":
            assert v.full is not None
            return v.full
        if v.kind == "split":
            assert v.dim is not None
            return np.concatenate(v.parts, axis=v.dim)
        return self.all_reduce(v.parts)

    def resolve_partial(self, node_id: int) -> _Val:
        """Mirror of the partitioner's ``resolve_partial``."""
        v = self.vals[node_id]
        if v.kind != "partial":
            return v
        resolved = _Val(kind="rep", full=self.all_reduce(v.parts))
        self.vals[node_id] = resolved
        return resolved

    def align_to(self, v: _Val, dim: int | None) -> _Val:
        """Re-lay a non-partial value out as ``dim`` (None = replicated).

        Splitting and concatenating contiguous ranges is lossless, so this
        models reshard/all-gather without affecting bit-exactness.
        """
        if v.kind == "partial":
            raise ValueError("resolve partial values before aligning")
        if dim is None:
            return _Val(kind="rep", full=self.to_full(v))
        full = self.to_full(v)
        return _Val(kind="split", dim=dim, parts=_split_array(full, self.k, dim))


def execute_plan(
    plan: PartitionPlan,
    inputs: dict[int, np.ndarray] | None = None,
    seed: int = 0,
    mesh: VirtualMesh | None = None,
) -> dict[int, np.ndarray]:
    """Execute ``plan`` sharded over ``plan.num_shards`` virtual cores.

    Returns the *full* (materialized) value of every node, for comparison
    with :func:`execute_reference`.  Layouts follow the plan's recorded
    ``compute_shardings`` — a divergence raises, so a "validated" plan is
    the plan the cost model priced, not a lookalike.
    """
    graph = plan.graph
    k = plan.num_shards
    if inputs is None:
        inputs = make_inputs(graph, seed)
    if k == 1:
        return execute_reference(graph, inputs, seed)
    ex = _Exec(graph, k, mesh)
    features = plan.partitioned.features
    seeds = plan.spec.resolve(graph)

    for node in graph.topological():
        if node.op in ("input", "parameter"):
            arr = np.asarray(inputs[node.id], dtype=np.float64)
            s = seeds.get(node.id)
            if s is None or s.replicated:
                ex.vals[node.id] = _Val(kind="rep", full=arr)
            elif s.partial:
                raise ExecutionUnsupported("partial seeds are not executable")
            else:
                ex.vals[node.id] = ex.align_to(_Val(kind="rep", full=arr), s.dim)
        elif node.op == "conv2d":
            _exec_conv2d(ex, node)
        elif node.op == "matmul":
            _exec_matmul(ex, node)
        elif node.op in ("elementwise", "add"):
            _exec_pointwise(ex, node)
        elif node.op == "gather":
            _exec_gather(ex, node, features, seed)
        elif node.op == "topk":
            _exec_topk(ex, node, features)
        elif node.op == "reduce":
            _exec_reduce(ex, node)
        else:  # pragma: no cover - IR is closed over these ops
            raise ExecutionUnsupported(f"no sharded executor for op {node.op!r}")
        _check_layout(ex, plan, node)

    return {nid: ex.to_full(v) for nid, v in ex.vals.items()}


def _check_layout(ex: _Exec, plan: PartitionPlan, node: Node) -> None:
    want = plan.compute_shardings[node.id]
    got = ex.vals[node.id]
    kind = "partial" if want.partial else ("rep" if want.dim is None else "split")
    if got.kind != kind or (kind == "split" and got.dim != want.dim):
        raise AssertionError(
            f"executor layout {got.kind}/{got.dim} for node {node.name!r} "
            f"diverges from plan {want.describe()}"
        )


def _exec_conv2d(ex: _Exec, node: Node) -> None:
    if node.attrs["stride"] != 1:
        raise ExecutionUnsupported("executor supports stride-1 convs only")
    x_id, w_id = node.inputs
    xv = ex.resolve_partial(x_id)
    w = ex.to_full(ex.vals[w_id])
    kh, kw = node.attrs["kernel"]
    if xv.kind == "split" and xv.dim == 1:
        if kh % 2 == 1 and kw % 2 == 1 and all(
            p.shape[1] >= conv_halo_rows(kh) for p in xv.parts
        ):
            parts, _ = spatial_conv2d(xv.parts, w)
            ex.vals[node.id] = _Val(kind="split", dim=1, parts=parts)
            return
        # Degenerate tiles: gather, convolve, re-split (lossless).
        full = conv2d_direct(ex.to_full(xv), w)
        ex.vals[node.id] = _Val(
            kind="split", dim=1, parts=_split_array(full, ex.k, 1)
        )
        return
    if xv.kind == "split" and xv.dim == 2:
        full = conv2d_direct(ex.to_full(xv), w)
        ex.vals[node.id] = _Val(
            kind="split", dim=2, parts=_split_array(full, ex.k, 2)
        )
        return
    if xv.kind == "split" and xv.dim == 0:
        parts = [
            conv2d_direct(p, w) if p.shape[0] else
            np.zeros((0,) + node.shape[1:], dtype=np.float64)
            for p in xv.parts
        ]
        ex.vals[node.id] = _Val(kind="split", dim=0, parts=parts)
        return
    if xv.kind == "split" and xv.dim == 3:
        # Contracting (input-channel) split: each core convolves its channel
        # slice against the matching filter rows -> full-shape partial sums.
        bounds = _split_bounds(w.shape[2], ex.k)
        parts = [
            conv2d_direct(p, w[:, :, lo:hi, :]) if (hi - lo) else
            np.zeros(node.shape, dtype=np.float64)
            for p, (lo, hi) in zip(xv.parts, bounds)
        ]
        ex.vals[node.id] = _Val(kind="partial", parts=parts)
        return
    if xv.kind == "split":
        full = conv2d_direct(ex.to_full(xv), w)
        ex.vals[node.id] = _Val(kind="rep", full=full)
        return
    ex.vals[node.id] = _Val(kind="rep", full=conv2d_direct(xv.full, w))


def _exec_matmul(ex: _Exec, node: Node) -> None:
    a_id, b_id = node.inputs
    av = ex.resolve_partial(a_id)
    bv = ex.resolve_partial(b_id)
    a_dim = av.dim if av.kind == "split" else None
    b_dim = bv.dim if bv.kind == "split" else None
    if a_dim == 1 or b_dim == 0:
        # Contracting dimension sharded: per-core slice matmuls -> partials.
        contract = ex.graph.node(a_id).shape[1]
        bounds = _split_bounds(contract, ex.k)
        a_parts = (
            av.parts if a_dim == 1
            else _split_array(ex.to_full(av), ex.k, 1)
        )
        b_parts = (
            bv.parts if b_dim == 0
            else _split_array(ex.to_full(bv), ex.k, 0)
        )
        parts = [
            ap @ bp if (hi - lo) else np.zeros(node.shape, dtype=np.float64)
            for ap, bp, (lo, hi) in zip(a_parts, b_parts, bounds)
        ]
        ex.vals[node.id] = _Val(kind="partial", parts=parts)
        return
    if a_dim == 0:
        b = ex.to_full(bv)
        parts = [p @ b for p in av.parts]
        ex.vals[node.id] = _Val(kind="split", dim=0, parts=parts)
        return
    if b_dim == 1:
        a = ex.to_full(av)
        parts = [a @ p for p in bv.parts]
        ex.vals[node.id] = _Val(kind="split", dim=1, parts=parts)
        return
    ex.vals[node.id] = _Val(kind="rep", full=ex.to_full(av) @ ex.to_full(bv))


def _exec_pointwise(ex: _Exec, node: Node) -> None:
    in_vals = [ex.resolve_partial(i) for i in node.inputs]
    # Mirror the partitioner's layout choice, then align every operand to it
    # (losslessly) and apply the op shard-wise.
    chosen: int | None = in_vals[0].dim if in_vals[0].kind == "split" else None
    chosen_rep = in_vals[0].kind == "rep"
    for other in in_vals[1:]:
        other_rep = other.kind == "rep"
        if chosen_rep and not other_rep:
            chosen = other.dim
            chosen_rep = False
    aligned = [ex.align_to(v, None if chosen_rep else chosen) for v in in_vals]
    if chosen_rep:
        arrays = [v.full for v in aligned]
        out = (
            _apply_fn(node, arrays[0]) if node.op == "elementwise"
            else arrays[0] + arrays[1]
        )
        ex.vals[node.id] = _Val(kind="rep", full=out)
        return
    parts = []
    for i in range(ex.k):
        ps = [v.parts[i] for v in aligned]
        parts.append(
            _apply_fn(node, ps[0]) if node.op == "elementwise" else ps[0] + ps[1]
        )
    ex.vals[node.id] = _Val(kind="split", dim=chosen, parts=parts)


def _exec_gather(ex: _Exec, node: Node, features, seed: int) -> None:
    (x_id,) = node.inputs
    xv = ex.resolve_partial(x_id)
    table = _gather_table(ex.graph, node, seed)
    ids = _gather_ids(ex.to_full(xv), node.attrs["num_indices"], table.shape[0])
    if features.partition_gather or features.gather_as_onehot_matmul:
        # Row-sharded table, one-hot matmul per core, all-reduce of partials
        # (each id's row lives on exactly one shard -> the sum is exact).
        full = sharded_onehot_gather(_split_array(table, ex.k, 0), ids, "f64")
        ex.vals[node.id] = _Val(
            kind="split", dim=0, parts=_split_array(full, ex.k, 0)
        )
    else:
        ex.vals[node.id] = _Val(kind="rep", full=table[ids])


def _exec_topk(ex: _Exec, node: Node, features) -> None:
    (x_id,) = node.inputs
    xv = ex.resolve_partial(x_id)
    if features.partition_topk and xv.kind == "split":
        if int(np.prod(node.shape[:-1], initial=1)) != 1:
            raise ExecutionUnsupported("topk executor wants leading dims of size 1")
        if xv.dim == len(ex.graph.node(x_id).shape) - 1:
            v, _ = distributed_topk(
                [p.ravel() for p in xv.parts], node.attrs["k"]
            )
            ex.vals[node.id] = _Val(kind="rep", full=v.reshape(node.shape))
            return
        full = _topk_full(node, ex.to_full(xv))
        ex.vals[node.id] = _Val(kind="rep", full=full)
        return
    ex.vals[node.id] = _Val(
        kind="rep", full=_topk_full(node, ex.to_full(xv))
    )


def _exec_reduce(ex: _Exec, node: Node) -> None:
    (x_id,) = node.inputs
    xv = ex.vals[x_id]
    if xv.kind == "rep":
        ex.vals[node.id] = _Val(kind="rep", full=np.asarray(np.sum(xv.full)))
        return
    # Partial or split: local sums + a real scalar all-reduce (exact for
    # the integer-valued payloads this executor runs).
    locals_ = [np.asarray(np.sum(p)) for p in xv.parts]
    ex.vals[node.id] = _Val(kind="rep", full=ex.all_reduce(locals_))


# --- validation ------------------------------------------------------------


@dataclass(frozen=True)
class ValidationResult:
    """Bit-exactness verdict for one plan at one seed."""

    ok: bool
    num_nodes: int
    mismatched_nodes: tuple[str, ...] = ()

    def describe(self) -> str:
        if self.ok:
            return f"bit-exact on all {self.num_nodes} nodes"
        return (
            f"MISMATCH on {len(self.mismatched_nodes)}/{self.num_nodes} "
            f"nodes: {', '.join(self.mismatched_nodes[:5])}"
        )


def validate_plan(
    plan: PartitionPlan, seed: int = 0, mesh: VirtualMesh | None = None
) -> ValidationResult:
    """Compare sharded plan execution against the replicated reference.

    Every node's materialized value must match bit-for-bit
    (``np.array_equal``, no tolerance).
    """
    inputs = make_inputs(plan.graph, seed)
    ref = execute_reference(plan.graph, inputs, seed)
    got = execute_plan(plan, inputs, seed, mesh)
    bad = tuple(
        plan.graph.node(nid).name
        for nid in sorted(ref)
        if not np.array_equal(ref[nid], got[nid])
    )
    return ValidationResult(ok=not bad, num_nodes=len(ref), mismatched_nodes=bad)
