"""Numpy-executed ring and 2-D hierarchical collectives.

The algorithms replicate the data motion of the hardware schedules:

* ring reduce-scatter — ``n - 1`` steps; at step ``s`` device ``d`` forwards
  chunk ``(d - s) mod n`` to device ``(d + 1) mod n``, which accumulates it;
* ring all-gather — the same motion without reduction;
* 2-D hierarchical all-reduce — reduce-scatter along Y per mesh column,
  reduce-scatter along X per row, an optional per-shard transform (the
  *sharded weight update* of Section 3.2/3.3), then all-gathers along X and
  Y.

Reductions can run in float64/float32 or emulated bfloat16 (rounding the
partial sum at every hop, as in-network bf16 summation does).

Two implementations coexist (DESIGN.md §6):

* the **reference** kernels (``_reference_*``) execute the schedule with
  per-device Python loops, one chunk object at a time — slow but an
  unmistakable transcription of the hardware data motion;
* the **vectorized** kernels (the public functions) reduce into a single
  flat ``(padded,)`` accumulator whose chunk ``c`` is slot ``c``, sweeping
  the devices linearly twice: each ring hop becomes one contiguous
  prefix/suffix block addition straight off the source buffer (see
  :func:`_linear_ring_passes`) — no staging copies, no index gathers, and
  a cache-resident accumulator.  Because every per-element reduction
  happens in the same ring order with the same dtype, the results are
  **bit-identical** to the reference kernels under every dtype policy
  (property-tested in ``tests/test_runtime_collectives.py``).

Every collective executes **device-major** (DESIGN.md §11): inputs may
arrive as one stacked ``(n_devices, *shape)`` block (or
:class:`~repro.runtime.stacked.StackedValue`) or as a list of per-device
arrays, and the ``*_stacked`` functions return a *replicated*
``StackedValue`` — one physical result buffer lazily viewed by every
device — instead of materializing ``n`` identical copies.  The list entry
points (:func:`ring_all_reduce`, :func:`ring_all_gather`,
:func:`two_phase_all_reduce`, :func:`reduce_scatter_grid`,
:func:`all_gather_grid`) are adapters over them: they regroup the input,
call the device-major function and hand back its per-device views, so
spans, counters and arithmetic exist once.  Their result rows are
therefore **read-only views of one shared buffer** — writing into one
raises; callers that need ownership ``.copy()``.  The grid collectives
batch their independent column/row rings into single stacked kernel calls
(:func:`_linear_ring_passes_batched`), so a 64x64-grid phase is
``O(ring_steps)`` numpy operations rather than ``O(x * y * ring_steps)``
Python iterations.  This is what pushes the runtime from ~256 to 4096
real devices.

Padding metadata is cached keyed by ``(n, size)`` and quantization staging
buffers are pooled keyed by shape/dtype — both behind *bounded* LRUs so a
workload sweeping many distinct shapes cannot grow them without limit —
and repeated steps (the trainer hot loop) pay zero setup and zero large
allocations beyond their outputs.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter as _perf
from typing import Callable, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.numerics.bfloat16 import _round_inplace_nonan, bf16_add, round_to_bfloat16
from repro.runtime.stacked import StackedValue

#: Supported accumulation policies.
DTYPE_POLICIES = ("f64", "f32", "bf16")

Reducer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _reducer_for(policy: str) -> Reducer:
    if policy == "f64":
        return lambda a, b: (a.astype(np.float64) + b.astype(np.float64))
    if policy == "f32":
        return lambda a, b: (a.astype(np.float32) + b.astype(np.float32))
    if policy == "bf16":
        return bf16_add
    raise ValueError(f"unknown dtype policy {policy!r}; choose from {DTYPE_POLICIES}")


def _dtype_for(policy: str) -> np.dtype:
    """Storage dtype of a policy's wire format (bf16 is emulated in f32)."""
    if policy == "f64":
        return np.dtype(np.float64)
    if policy in ("f32", "bf16"):
        return np.dtype(np.float32)
    raise ValueError(f"unknown dtype policy {policy!r}; choose from {DTYPE_POLICIES}")


def _prepare(policy: str, array: np.ndarray) -> np.ndarray:
    """Quantize an input buffer to the wire format of the policy."""
    if policy == "bf16":
        return round_to_bfloat16(array)
    if policy == "f64":
        return array.astype(np.float64)
    return array.astype(np.float32)


# --- cached schedule / padding metadata -------------------------------------


@lru_cache(maxsize=1024)
def padded_chunk_layout(n: int, size: int) -> tuple[int, int]:
    """``(padded, chunk)`` for splitting a ``size``-element buffer n ways.

    Bounded LRU: a sweep over many distinct ``(n, size)`` pairs (shape
    searches, hypothesis runs) evicts the oldest layouts instead of growing
    without limit; the hot-loop pairs stay resident.
    """
    padded = ((size + n - 1) // n) * n
    return padded, padded // n


# --- telemetry ---------------------------------------------------------------


def _record_collective(
    op: str, n: int, chunk: int, itemsize: int, policy: str, seconds: float,
    axis: str = "ring", steps: int | None = None,
) -> None:
    """Account one collective launch: bytes on the wire, ring steps, time.

    The byte model is the ring's: ``n - 1`` hops, every device forwarding
    one ``chunk``-element message per hop — ``n * (n - 1) * chunk *
    itemsize`` bytes per phase, the same traffic term the alpha-beta cost
    model charges.  Only called when telemetry is enabled.
    """
    m = _telemetry.metrics
    if steps is None:
        steps = n - 1
    m.counter("collective_bytes", op=op, axis=axis, policy=policy).inc(
        n * (n - 1) * chunk * itemsize
    )
    m.counter("collective_ring_steps", op=op, axis=axis).inc(steps)
    m.counter("collective_launches", op=op, axis=axis).inc()
    m.histogram("collective_seconds", op=op, axis=axis).observe(seconds)


class _LRUBufferPool:
    """Bounded LRU of reusable staging buffers keyed by (shape, dtype).

    The old pool cleared itself wholesale past a size threshold, throwing
    away the hot-loop buffers along with the stale ones; this one evicts
    only least-recently-used entries, and its hit/miss/eviction counts are
    exact (exposed as ``scratch_pool_cache_*`` gauges at snapshot time).
    Not thread-safe (nothing in the functional layer is).
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._buffers: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._buffers)

    def get(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is not None:
            self._buffers.move_to_end(key)
            self.hits += 1
            return buf
        self.misses += 1
        while len(self._buffers) >= self.maxsize:
            self._buffers.popitem(last=False)
            self.evictions += 1
        buf = self._buffers[key] = np.empty(shape, dtype)
        return buf

    def clear(self) -> None:
        self._buffers.clear()


_SCRATCH = _LRUBufferPool(maxsize=32)


def _scratch(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    return _SCRATCH.get(shape, dtype)


def _cache_collector(m) -> None:
    """Snapshot-time gauges for the padding-layout and scratch-pool caches."""
    info = padded_chunk_layout.cache_info()
    m.gauge("padding_layout_cache_hits").set(info.hits)
    m.gauge("padding_layout_cache_misses").set(info.misses)
    m.gauge("padding_layout_cache_size").set(info.currsize)
    m.gauge("scratch_pool_cache_hits").set(_SCRATCH.hits)
    m.gauge("scratch_pool_cache_misses").set(_SCRATCH.misses)
    m.gauge("scratch_pool_cache_evictions").set(_SCRATCH.evictions)
    m.gauge("scratch_pool_cache_size").set(len(_SCRATCH))


_telemetry.metrics.register_collector(_cache_collector)


@dataclass
class ShardedValue:
    """Per-device shards of a reduced buffer plus reassembly metadata.

    ``shards[d]`` is the flattened chunk owned by device ``d``; chunk ``d``
    of the padded flat buffer lives on device ``d``.  When the shards are
    rows of one contiguous ``(n, chunk)`` device-major allocation (the
    vectorized kernels always produce this), ``block`` is that backing
    array and the gather/assembly paths read the reduced buffer straight
    off it with zero concatenation.
    """

    shards: list[np.ndarray]
    shape: tuple[int, ...]
    padded_size: int
    block: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def num_devices(self) -> int:
        return len(self.shards)

    def assemble(self) -> np.ndarray:
        """Concatenate shards and strip padding back to the original shape."""
        size = int(np.prod(self.shape)) if self.shape else 1
        if self.block is not None:
            # Copy: assemble() has always returned freshly owned memory.
            flat = self.block.reshape(-1)[:size].copy()
        else:
            flat = np.concatenate(self.shards)
        return flat[:size].reshape(self.shape)


def _check_same_shape(arrays: Sequence[np.ndarray]) -> tuple[int, ...]:
    if not len(arrays):
        raise ValueError("need at least one device buffer")
    shape = np.asarray(arrays[0]).shape
    for a in arrays:
        if np.asarray(a).shape != shape:
            raise ValueError("all device buffers must have the same shape")
    return shape


def _as_device_block(
    arrays,
) -> tuple[np.ndarray | None, Sequence[np.ndarray], int, tuple[int, ...]]:
    """Normalize any device-input form to ``(block, flats, n, shape)``.

    Accepts a :class:`StackedValue`, a device-major ``(n, *shape)``
    ndarray, or the legacy sequence of per-device arrays.  ``flats`` are
    the per-device flat rows (zero-copy views where possible); ``block``
    is the contiguous ``(n, flat_size)`` backing array when one exists
    (``None`` for plain lists and for replicated values, whose logical
    rows are broadcasts of one physical row).
    """
    if isinstance(arrays, StackedValue):
        n = arrays.num_devices
        shape = tuple(arrays.shape)
        flat2 = arrays.block.reshape(arrays.block.shape[0], -1)
        if arrays.replicated:
            return None, [flat2[0]] * n, n, shape
        block = flat2 if flat2.flags.c_contiguous else None
        return block, list(flat2), n, shape
    if isinstance(arrays, np.ndarray) and arrays.ndim >= 2:
        n = arrays.shape[0]
        if n == 0:
            raise ValueError("need at least one device buffer")
        shape = tuple(arrays.shape[1:])
        flat2 = arrays.reshape(n, -1)
        block = flat2 if flat2.flags.c_contiguous else None
        return block, list(flat2), n, shape
    shape = _check_same_shape(arrays)
    flats = [np.asarray(a).reshape(-1) for a in arrays]
    return None, flats, len(flats), tuple(shape)


def _linear_ring_passes(
    acc: np.ndarray,
    srcs,
    size: int,
    chunk: int,
    bf16_round: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """Ring reduce-scatter as two linear sweeps of contiguous block adds.

    ``acc`` is the flat ``(padded,)`` accumulator whose chunk ``c`` is slot
    ``c``; ``srcs[d]`` is device ``d``'s quantized flat buffer (``size``
    elements).  Slot ``c`` must accumulate devices in the cyclic ring order
    ``c, c+1, ..., n-1, 0, ..., c-1`` — which a linear sweep over devices
    realizes exactly: in pass one device ``d`` *initializes* its own slot
    (a copy, so signed zeros and NaN payloads survive bit-exactly) and is
    added to every slot below ``d``; in pass two it is added to every slot
    above ``d``.  Each step is therefore one contiguous prefix/suffix add
    straight off the source buffer (operand order ``contribution + acc``,
    matching ``reducer(chunks[dst][c], chunks[d][c])`` of the reference
    schedule) — no staging copies, no index arrays, and the accumulator
    stays cache-resident.  For bf16 each touched region is re-rounded
    after its add, exactly one rounding per slot per hop.

    Padding slots (``>= size``) are never written and must be pre-zeroed.
    ``bf16_round`` is the per-hop in-place rounding function for the bf16
    policy (:func:`_bf16_round_for` picks the NaN-checked or the faster
    NaN-free variant per collective); ``None`` for f32/f64.
    """
    n = len(srcs)
    for d in range(n):
        lo = d * chunk
        hi = min(lo + chunk, size)
        if hi > lo:
            acc[lo:hi] = srcs[d][lo:hi]
        end = min(lo, size)
        if end > 0:
            np.add(srcs[d][:end], acc[:end], out=acc[:end])
            if bf16_round is not None:
                bf16_round(acc[:end])
    for d in range(n - 1):
        start = min((d + 1) * chunk, size)
        if start < size:
            np.add(srcs[d][start:size], acc[start:size], out=acc[start:size])
            if bf16_round is not None:
                bf16_round(acc[start:size])
    return acc


def _linear_ring_passes_batched(
    acc2: np.ndarray,
    srcs3: np.ndarray,
    size: int,
    chunk: int,
    bf16_round: Callable[[np.ndarray], np.ndarray] | None = None,
) -> np.ndarray:
    """``B`` independent ring reduce-scatters as one batched kernel.

    ``acc2`` is ``(B, padded)`` — row ``b`` is the flat accumulator of ring
    ``b`` — and ``srcs3`` is ``(B, n, size)``: ``srcs3[b, d]`` is ring
    ``b``'s device ``d`` (any strided view works, e.g. the transposed Y
    accumulators feeding the X phase of the 2-D schedule).  Each batch row
    executes the *identical* operation sequence of
    :func:`_linear_ring_passes` — the rings are data-independent and every
    add/round is elementwise, so batching them into 2-D operations is
    bit-exact — but a grid phase costs ``O(ring_steps)`` numpy calls
    instead of ``O(B * ring_steps)``, which is what makes 64x64-grid
    (4096-device) collectives executable.

    Padding columns (``>= size``) are never written and must be pre-zeroed.
    """
    n = srcs3.shape[1]
    for d in range(n):
        lo = d * chunk
        hi = min(lo + chunk, size)
        if hi > lo:
            acc2[:, lo:hi] = srcs3[:, d, lo:hi]
        end = min(lo, size)
        if end > 0:
            np.add(srcs3[:, d, :end], acc2[:, :end], out=acc2[:, :end])
            if bf16_round is not None:
                bf16_round(acc2[:, :end])
    for d in range(n - 1):
        start = min((d + 1) * chunk, size)
        if start < size:
            np.add(srcs3[:, d, start:size], acc2[:, start:size], out=acc2[:, start:size])
            if bf16_round is not None:
                bf16_round(acc2[:, start:size])
    return acc2


def _round_checked(seg: np.ndarray) -> np.ndarray:
    return round_to_bfloat16(seg, out=seg)


def _bf16_round_for(staged: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Pick the per-hop rounding variant for one collective.

    When every staged input is finite, accumulation chains can saturate to
    ±inf but never produce NaN, so the NaN-mask passes of the full rounding
    can be skipped bit-exactly; any NaN/inf input falls back to the checked
    variant.
    """
    finite = np.isfinite(staged, out=_scratch(staged.shape, np.dtype(np.bool_)))
    return _round_inplace_nonan if finite.all() else _round_checked


def _quantized_sources(
    flats, dtype: np.dtype, policy: str, block: np.ndarray | None = None
) -> tuple[Sequence[np.ndarray] | np.ndarray, Callable | None]:
    """Per-device flat buffers in the policy's wire format.

    Returns ``(srcs, bf16_round)``.  Buffers already in the wire dtype are
    used as-is (zero copies — the hot path); otherwise the stack is staged
    once through a pooled scratch block.  For bf16 each row gets a fused
    copy+round (bias temporaries stay cache-sized) plus a finiteness check
    while the row is still cache-hot, which selects the per-hop rounding
    variant (see :func:`_bf16_round_for`); ``bf16_round`` is ``None`` for
    the other policies.

    When ``block`` is the contiguous ``(n, size)`` backing array of
    ``flats`` (the device-major fast path), staging and rounding run as
    single whole-block operations instead of per-row loops — elementwise
    identical, but ``O(1)`` dispatches for a 4096-row stack.
    """
    if policy != "bf16":
        if all(f.dtype == dtype for f in flats):
            return flats, None
        staged = _scratch((len(flats), flats[0].size), dtype)
        if block is not None:
            staged[...] = block
        else:
            for d, f in enumerate(flats):
                staged[d] = f
        return staged, None
    staged = _scratch((len(flats), flats[0].size), dtype)
    if block is not None:
        round_to_bfloat16(block, out=staged)
        finite = bool(
            np.isfinite(staged, out=_scratch(staged.shape, np.dtype(np.bool_))).all()
        )
        return staged, (_round_inplace_nonan if finite else _round_checked)
    row_ok = _scratch((flats[0].size,), np.dtype(np.bool_))
    finite = True
    for d, f in enumerate(flats):
        round_to_bfloat16(f, out=staged[d])
        if finite:
            finite = bool(np.isfinite(staged[d], out=row_ok).all())
    return staged, (_round_inplace_nonan if finite else _round_checked)


def _ring_reduce_scatter_impl(
    arrays, dtype_policy: str
) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Shared core: returns ``(shards (n, chunk), shape, padded)``.

    ``arrays`` may be a legacy per-device sequence, a device-major
    ``(n, *shape)`` ndarray, or a :class:`StackedValue` — the contiguous
    block forms take the whole-stack quantization fast path.
    """
    dtype = _dtype_for(dtype_policy)
    block, flats, n, shape = _as_device_block(arrays)
    size = int(np.prod(shape)) if shape else 1
    padded, chunk = padded_chunk_layout(n, size)
    srcs, bf16_round = _quantized_sources(flats, dtype, dtype_policy, block)
    acc = np.empty(padded, dtype=dtype)
    acc[size:] = 0
    _linear_ring_passes(acc, srcs, size, chunk, bf16_round)
    return acc.reshape(n, chunk), shape, padded


def ring_reduce_scatter(arrays, dtype_policy: str = "f32") -> ShardedValue:
    """Reduce-scatter over ``n`` device buffers via the ring algorithm.

    ``arrays`` may be a per-device sequence, a device-major ``(n, *shape)``
    block, or a :class:`StackedValue`.  Returns a :class:`ShardedValue`
    where device ``d`` owns the fully reduced chunk ``d``.  The
    accumulation order is the ring order, so float32/bf16 results carry
    the rounding pattern of real hardware rings.
    """
    t0 = _perf()
    with _telemetry.tracer.span("ring_reduce_scatter", category="comm"):
        shards, shape, padded = _ring_reduce_scatter_impl(arrays, dtype_policy)
    n = shards.shape[0]
    if _telemetry.enabled:
        _record_collective(
            "reduce_scatter", n, padded // n,
            _dtype_for(dtype_policy).itemsize, dtype_policy, _perf() - t0,
        )
    return ShardedValue(list(shards), shape, padded, block=shards)


def ring_all_gather(value: ShardedValue) -> list[np.ndarray]:
    """All-gather shards back to a full buffer on every device.

    List adapter over :func:`ring_all_gather_stacked`: the rows are
    read-only views of its one result buffer (writing raises; ``.copy()``
    for ownership).
    """
    return ring_all_gather_stacked(value).to_list()


def ring_all_gather_stacked(value: ShardedValue) -> StackedValue:
    """All-gather as a lazily replicated :class:`StackedValue`.

    The ring motion moves chunks without arithmetic, so the full buffer is
    assembled once — bit-identical to (and assertion-free, unlike) the
    step-by-step :func:`_reference_ring_all_gather` — and the result is
    *one* physical buffer viewed by every device instead of ``n``
    materialized copies, the dominant cost of a per-device gather at large
    ``n`` (a 256-device gather of a 64 Ki-element buffer spent ~85 % of
    its time on the copies).  When ``value.block`` is set the result views
    that block.  Callers that need per-device ownership materialize
    explicitly (``.materialized()``).
    """
    n = value.num_devices
    size = int(np.prod(value.shape)) if value.shape else 1
    t0 = _perf()
    with _telemetry.tracer.span("ring_all_gather", category="comm"):
        if value.block is not None:
            full = value.block.reshape(-1)[:size]
        else:
            full = np.concatenate(value.shards)[:size]
        result = StackedValue.replicate(full.reshape(value.shape), n)
    if _telemetry.enabled and n > 1:
        # The gather is pure data movement; the wire dtype stands in for
        # the policy label (bf16 shards travel as f32, matching the wire).
        policy = {"float64": "f64", "float32": "f32"}.get(
            full.dtype.name, full.dtype.name
        )
        _record_collective(
            "all_gather", n, value.padded_size // n, full.dtype.itemsize,
            policy, _perf() - t0,
        )
    return result


def ring_all_reduce(arrays, dtype_policy: str = "f32") -> list[np.ndarray]:
    """Ring all-reduce = reduce-scatter + all-gather, one row per device.

    List adapter over :func:`ring_all_reduce_stacked` (same inputs): the
    rows are read-only views of its one reduced buffer (writing raises;
    ``.copy()`` for ownership).
    """
    return ring_all_reduce_stacked(arrays, dtype_policy).to_list()


def ring_all_reduce_stacked(arrays, dtype_policy: str = "f32") -> StackedValue:
    """Device-major ring all-reduce returning a replicated result.

    ``arrays`` may be a per-device sequence, a device-major ``(n,
    *shape)`` block, or a :class:`StackedValue`.  The reduce phase is the
    :func:`_linear_ring_passes` sequence (bit-identical to the reference
    under every dtype policy); its shards land as rows of one contiguous
    block in chunk order, so the gather phase reads the reduced buffer
    straight off the block and returns it as one replicated
    :class:`StackedValue` instead of ``n`` per-device copies.  This is the
    hot path the trainers use: stacked gradients in, one shared reduced
    buffer out.
    """
    t0 = _perf()
    with _telemetry.tracer.span("ring_all_reduce", category="comm"):
        shards, shape, _ = _ring_reduce_scatter_impl(arrays, dtype_policy)
        n = shards.shape[0]
        size = int(np.prod(shape)) if shape else 1
        full = shards.reshape(-1)[:size]
        result = StackedValue.replicate(full.reshape(shape), n)
    if _telemetry.enabled:
        # Reduce-scatter + all-gather: twice the one-phase ring traffic.
        _record_collective(
            "all_reduce", n, 2 * shards.shape[1],
            _dtype_for(dtype_policy).itemsize, dtype_policy, _perf() - t0,
            steps=2 * (n - 1),
        )
    return result


# --- 2-D hierarchical collective (Section 3.3) -----------------------------


def _grid_shape(grid: Sequence[Sequence[np.ndarray]]) -> tuple[int, int]:
    x = len(grid)
    if x == 0:
        raise ValueError("empty device grid")
    y = len(grid[0])
    for col in grid:
        if len(col) != y:
            raise ValueError("ragged device grid")
    if y == 0:
        raise ValueError("empty device grid column")
    return x, y


def _quantized_grid_block(
    flats, dtype: np.dtype, policy: str, block: np.ndarray | None = None
) -> tuple[np.ndarray, Callable | None]:
    """Like :func:`_quantized_sources` but always yields a real 2-D block.

    The batched grid kernels index sources as one ``(n, size)`` array, so
    list inputs that are already in the wire dtype (which the plain ring
    keeps as zero-copy views) are staged through the scratch pool here —
    one bit-preserving copy that buys ``O(ring_steps)`` instead of
    ``O(n * ring_steps)`` kernel dispatches.
    """
    srcs, bf16_round = _quantized_sources(flats, dtype, policy, block)
    if isinstance(srcs, np.ndarray):
        return srcs, bf16_round
    if block is not None and block.dtype == dtype:
        return block, bf16_round
    staged = _scratch((len(flats), flats[0].size), dtype)
    for d, f in enumerate(srcs):
        staged[d] = f
    return staged, bf16_round


def _reduce_scatter_grid_core(
    flats,
    block: np.ndarray | None,
    x_size: int,
    y_size: int,
    shape: tuple[int, ...],
    dtype_policy: str,
) -> np.ndarray:
    """Batched phases 1+2 of the 2-D schedule.

    Sources are in x-major device order (``flats[x * y_size + y]`` is mesh
    coordinate ``(x, y)``).  Returns the freshly allocated ``(y_size,
    x_size, x_chunk)`` shard block: ``shards3[y, x]`` is device (x, y)'s
    fully reduced shard (X-chunk ``x`` of Y-chunk ``y``).

    Both ring phases run batched: the ``x_size`` independent column rings
    execute as *one* stacked kernel call
    (:func:`_linear_ring_passes_batched`), then the ``y_size`` row rings
    as another, reading the Y accumulators through a transposed zero-copy
    view.  Each batch row replays the exact scalar-kernel op sequence, so
    results stay bit-identical to the per-ring references.
    """
    dtype = _dtype_for(dtype_policy)
    size = int(np.prod(shape)) if shape else 1
    srcs2, bf16_round = _quantized_grid_block(flats, dtype, dtype_policy, block)
    srcs3 = srcs2.reshape(x_size, y_size, size)
    # Y phase: one ring per mesh column, all columns batched.
    padded_y, y_chunk = padded_chunk_layout(y_size, size)
    t0 = _perf()
    with _telemetry.tracer.span("reduce_scatter_y", category="comm"):
        acc_y = np.empty((x_size, padded_y), dtype=dtype)
        acc_y[:, size:] = 0
        _linear_ring_passes_batched(acc_y, srcs3, size, y_chunk, bf16_round)
    if _telemetry.enabled:
        # x_size concurrent column rings of y_size members each.
        _record_collective(
            "reduce_scatter", y_size, x_size * y_chunk, dtype.itemsize,
            dtype_policy, _perf() - t0, axis="y",
        )
    # X phase: for each Y-shard index, a ring across columns.  Sources are
    # the Y accumulators (already quantized, so no re-rounding for bf16):
    # device x of ring y contributes Y-chunk y of mesh column x — exactly
    # the transpose of the Y accumulator block, taken as a strided view.
    # The NaN-free fast path must be re-decided here: finite inputs can
    # saturate to +inf in one column and -inf in another, which meet as
    # NaN when reducing across X.
    if dtype_policy == "bf16":
        bf16_round = _bf16_round_for(acc_y)
    acc_y3 = acc_y.reshape(x_size, y_size, y_chunk)
    padded_x, x_chunk = padded_chunk_layout(x_size, y_chunk)
    t0 = _perf()
    with _telemetry.tracer.span("reduce_scatter_x", category="comm"):
        x_shards = np.empty((y_size, padded_x), dtype=dtype)
        x_shards[:, y_chunk:] = 0
        _linear_ring_passes_batched(
            x_shards, acc_y3.transpose(1, 0, 2), y_chunk, x_chunk, bf16_round
        )
    if _telemetry.enabled:
        # y_size concurrent row rings over the already-1/y payload.
        _record_collective(
            "reduce_scatter", x_size, y_size * x_chunk, dtype.itemsize,
            dtype_policy, _perf() - t0, axis="x",
        )
    return x_shards.reshape(y_size, x_size, x_chunk)


def _all_gather_grid_core(
    shards3: np.ndarray, shape: tuple[int, ...], dtype_policy: str
) -> StackedValue:
    """Phase 4 of the 2-D schedule: all-gather along X, then along Y.

    ``shards3`` is the ``(y_size, x_size, x_chunk)`` shard block
    (``shards3[y, x]`` is device (x, y)'s final shard: X-chunk ``x`` of
    Y-chunk ``y`` of the padded flat buffer); ``shape`` is the original
    (unpadded) buffer shape.  Pure data movement: the X-gather
    concatenates the x shards (stripped to ``y_chunk``), the Y-gather the
    y chunks (stripped to ``size``), and every device views the one
    assembled buffer.
    """
    _dtype_for(dtype_policy)
    y_size, x_size, _ = shards3.shape
    size = int(np.prod(shape)) if shape else 1
    _, y_chunk = padded_chunk_layout(y_size, size)
    padded_x, x_chunk = padded_chunk_layout(x_size, y_chunk)
    t0 = _perf()
    with _telemetry.tracer.span("all_gather_grid", category="comm"):
        full = shards3.reshape(y_size, padded_x)[:, :y_chunk].reshape(-1)[:size]
        if np.shares_memory(full, shards3):
            # Zero-copy assembly aliases the shard block (or whatever a
            # user transform returned); the replicated result must own
            # its memory.
            full = full.copy()
        result = StackedValue.replicate(full.reshape(shape), x_size * y_size)
    if _telemetry.enabled:
        m = _telemetry.metrics
        itemsize = shards3.dtype.itemsize
        m.counter(
            "collective_bytes", op="all_gather", axis="x", policy=dtype_policy
        ).inc(x_size * (x_size - 1) * y_size * x_chunk * itemsize)
        m.counter(
            "collective_bytes", op="all_gather", axis="y", policy=dtype_policy
        ).inc(y_size * (y_size - 1) * x_size * y_chunk * itemsize)
        m.counter("collective_ring_steps", op="all_gather", axis="xy").inc(
            (x_size - 1) + (y_size - 1)
        )
        m.counter("collective_launches", op="all_gather", axis="xy").inc()
        m.histogram("collective_seconds", op="all_gather", axis="xy").observe(
            _perf() - t0
        )
    return result


def _grid_rows(rows: list, x_size: int, y_size: int) -> list[list]:
    """Regroup x-major per-device rows as a ``[x][y]`` grid."""
    return [rows[x * y_size:(x + 1) * y_size] for x in range(x_size)]


def reduce_scatter_grid(
    grid: Sequence[Sequence[np.ndarray]], dtype_policy: str = "f32"
) -> list[list[ShardedValue]]:
    """Phase 1+2 of the 2-D schedule: Y reduce-scatter, then X reduce-scatter.

    ``grid[x][y]`` is the buffer of the chip at mesh coordinate (x, y).
    Returns per-device :class:`ShardedValue` views whose shards are the
    per-chip gradient shards fed to the sharded weight update: device (x, y)
    owns X-chunk ``x`` of Y-chunk ``y``.  List adapter over the batched
    grid kernel (:func:`_reduce_scatter_grid_core`); the shards are
    distinct rows of its one shard block.
    """
    x_size, y_size = _grid_shape(grid)
    block, flats, _, shape = _as_device_block([g for col in grid for g in col])
    shards3 = _reduce_scatter_grid_core(
        flats, block, x_size, y_size, shape, dtype_policy
    )
    per_device = [
        ShardedValue([shard], shard.shape, shard.size)
        for col in shards3.swapaxes(0, 1)
        for shard in col
    ]
    return _grid_rows(per_device, x_size, y_size)


def all_gather_grid(
    shards: Sequence[Sequence[np.ndarray]],
    shape: tuple[int, ...],
    dtype_policy: str = "f32",
) -> list[list[np.ndarray]]:
    """Phase 4: all-gather along X then along Y, restoring full buffers.

    ``shards[x][y]`` is device (x, y)'s final shard (X-chunk ``x`` of
    Y-chunk ``y`` of the padded flat buffer); ``shape`` is the original
    (unpadded) buffer shape.  List adapter over the device-major gather:
    the ``[x][y]`` results are read-only views of its one assembled buffer
    (writing raises; ``.copy()`` for ownership).
    """
    x_size, y_size = _grid_shape(shards)
    flat = np.stack([np.ravel(shard) for col in shards for shard in col])
    shards3 = flat.reshape(x_size, y_size, -1).swapaxes(0, 1)
    gathered = _all_gather_grid_core(shards3, tuple(shape), dtype_policy)
    return _grid_rows(gathered.to_list(), x_size, y_size)


def two_phase_all_reduce(
    grid: Sequence[Sequence[np.ndarray]],
    dtype_policy: str = "f32",
    shard_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[list[np.ndarray]]:
    """The full 2-D hierarchical all-reduce over a ``grid[x][y]`` of buffers.

    List adapter over :func:`two_phase_all_reduce_stacked` (which see for
    ``shard_transform``): the ``[x][y]`` results are read-only views of
    its one reduced buffer (writing raises; ``.copy()`` for ownership).
    """
    x_size, y_size = _grid_shape(grid)
    reduced = two_phase_all_reduce_stacked(
        [g for col in grid for g in col], (x_size, y_size), dtype_policy,
        shard_transform,
    )
    return _grid_rows(reduced.to_list(), x_size, y_size)


def two_phase_all_reduce_stacked(
    arrays,
    grid_shape: tuple[int, int],
    dtype_policy: str = "f32",
    shard_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> StackedValue:
    """Device-major 2-D hierarchical all-reduce with a replicated result.

    ``arrays`` is a device-major ``(x * y, *shape)`` block (or
    :class:`StackedValue`, or a flat per-device sequence) in x-major order;
    ``grid_shape`` is the mesh extent.  Both ring phases run as batched
    stacked kernels and the gather phase returns one replicated
    :class:`StackedValue` instead of ``x * y`` materialized copies.

    ``shard_transform`` is applied to the reduced gradient shards *between*
    the reduce-scatter and all-gather phases — exactly where the paper's
    weight-update sharding computes the optimizer step, so passing the
    update function here reproduces the fused schedule of Section 3.3.  It
    must be elementwise and shape-preserving: it is called *once* on the
    whole ``(y, x, x_chunk)`` shard block, which for elementwise
    transforms is bit-identical to a per-shard loop.
    """
    x_size, y_size = grid_shape
    if x_size < 1 or y_size < 1:
        raise ValueError("grid_shape dims must be >= 1")
    block, flats, n, shape = _as_device_block(arrays)
    if n != x_size * y_size:
        raise ValueError(
            f"{n} device buffers do not fill a {x_size}x{y_size} grid"
        )
    with _telemetry.tracer.span("two_phase_all_reduce", category="comm"):
        shards3 = _reduce_scatter_grid_core(
            flats, block, x_size, y_size, shape, dtype_policy
        )
        if shard_transform is not None:
            with _telemetry.tracer.span("shard_transform", category="update"):
                transformed = np.asarray(shard_transform(shards3))
                if transformed.shape != shards3.shape:
                    raise ValueError("shard_transform must preserve shape")
                shards3 = transformed
        result = _all_gather_grid_core(shards3, shape, dtype_policy)
    if _telemetry.enabled:
        _telemetry.metrics.counter(
            "collective_launches", op="two_phase_all_reduce", axis="xy"
        ).inc()
    return result


# --- reference implementations (retained for bit-identity cross-checks) ----


def _reference_chunked(
    arrays: Sequence[np.ndarray], n: int
) -> tuple[list[list[np.ndarray]], tuple[int, ...], int]:
    """Flatten each device buffer and split into n equal chunks (padded)."""
    shape = _check_same_shape(arrays)
    size = int(np.prod(shape)) if shape else 1
    padded = ((size + n - 1) // n) * n
    chunks: list[list[np.ndarray]] = []
    for a in arrays:
        flat = np.asarray(a).reshape(-1)
        if padded != size:
            flat = np.concatenate([flat, np.zeros(padded - size, dtype=flat.dtype)])
        chunks.append(np.split(flat, n))
    return chunks, shape, padded


def _reference_ring_reduce_scatter(
    arrays: Sequence[np.ndarray], dtype_policy: str = "f32"
) -> ShardedValue:
    """Per-device-loop reduce-scatter: the schedule transcribed literally."""
    n = len(arrays)
    reducer = _reducer_for(dtype_policy)
    chunks, shape, padded = _reference_chunked(
        [_prepare(dtype_policy, np.asarray(a)) for a in arrays], n
    )
    if n == 1:
        return ShardedValue([chunks[0][0]], shape, padded)
    for step in range(n - 1):
        updates = {}
        for d in range(n):
            c = (d - step) % n
            dst = (d + 1) % n
            updates[(dst, c)] = reducer(chunks[dst][c], chunks[d][c])
        for (dst, c), v in updates.items():
            chunks[dst][c] = v
    shards = [chunks[(c - 1) % n][c] for c in range(n)]
    return ShardedValue(shards, shape, padded)


def _reference_ring_all_gather(value: ShardedValue) -> list[np.ndarray]:
    """Step-by-step ring all-gather.

    Tracks only the single chunk each device receives per step (``carry``)
    instead of the full O(n²) per-device ``have`` table of earlier
    revisions: at step ``s`` device ``d`` receives its predecessor's carry,
    which is reduced chunk ``(d - s) mod n``.
    """
    n = value.num_devices
    if n == 1:
        return [value.assemble()]
    received: list[list[np.ndarray]] = [[None] * n for _ in range(n)]  # type: ignore[list-item]
    carry = list(value.shards)
    for d in range(n):
        received[d][d] = value.shards[d]
    for step in range(1, n):
        carry = [carry[(d - 1) % n] for d in range(n)]
        for d in range(n):
            received[d][(d - step) % n] = carry[d]
    out = []
    size = int(np.prod(value.shape)) if value.shape else 1
    for d in range(n):
        flat = np.concatenate(received[d])
        out.append(flat[:size].reshape(value.shape))
    return out


def _reference_ring_all_reduce(
    arrays: Sequence[np.ndarray], dtype_policy: str = "f32"
) -> list[np.ndarray]:
    return _reference_ring_all_gather(
        _reference_ring_reduce_scatter(arrays, dtype_policy)
    )


def _reference_reduce_scatter_grid(
    grid: Sequence[Sequence[np.ndarray]], dtype_policy: str = "f32"
) -> list[list[ShardedValue]]:
    """Per-ring-loop 2-D reduce-scatter (phases 1+2)."""
    x_size, y_size = _grid_shape(grid)
    y_sharded = [
        _reference_ring_reduce_scatter(
            [grid[x][y] for y in range(y_size)], dtype_policy
        )
        for x in range(x_size)
    ]
    out: list[list[ShardedValue]] = [[None] * y_size for _ in range(x_size)]  # type: ignore[list-item]
    for y in range(y_size):
        x_inputs = [y_sharded[x].shards[y] for x in range(x_size)]
        sub = _reference_ring_reduce_scatter(x_inputs, dtype_policy)
        for x in range(x_size):
            out[x][y] = ShardedValue(
                shards=[sub.shards[x]],
                shape=sub.shards[x].shape,
                padded_size=sub.shards[x].size,
            )
    return out


def _reference_all_gather_grid(
    shards: Sequence[Sequence[np.ndarray]],
    shape: tuple[int, ...],
    dtype_policy: str = "f32",
) -> list[list[np.ndarray]]:
    """Per-ring-loop 2-D all-gather (phase 4)."""
    x_size = len(shards)
    y_size = len(shards[0])
    size = int(np.prod(shape)) if shape else 1
    padded_y = ((size + y_size - 1) // y_size) * y_size
    y_chunk = padded_y // y_size
    padded_x = ((y_chunk + x_size - 1) // x_size) * x_size
    y_chunks: list[list[np.ndarray]] = [[None] * y_size for _ in range(x_size)]  # type: ignore[list-item]
    for y in range(y_size):
        sv = ShardedValue(
            shards=[np.asarray(shards[x][y]).reshape(-1) for x in range(x_size)],
            shape=(y_chunk,),
            padded_size=padded_x,
        )
        gathered = _reference_ring_all_gather(sv)
        for x in range(x_size):
            y_chunks[x][y] = gathered[x]
    out: list[list[np.ndarray]] = [[None] * y_size for _ in range(x_size)]  # type: ignore[list-item]
    for x in range(x_size):
        sv = ShardedValue(shards=y_chunks[x], shape=shape, padded_size=padded_y)
        gathered = _reference_ring_all_gather(sv)
        for y in range(y_size):
            out[x][y] = gathered[y]
    return out


def _reference_two_phase_all_reduce(
    grid: Sequence[Sequence[np.ndarray]],
    dtype_policy: str = "f32",
    shard_transform: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[list[np.ndarray]]:
    x_size, y_size = _grid_shape(grid)
    shape = np.asarray(grid[0][0]).shape
    reduced = _reference_reduce_scatter_grid(grid, dtype_policy)
    final_shards: list[list[np.ndarray]] = [[None] * y_size for _ in range(x_size)]  # type: ignore[list-item]
    for x in range(x_size):
        for y in range(y_size):
            shard = reduced[x][y].shards[0]
            if shard_transform is not None:
                transformed = np.asarray(shard_transform(shard))
                if transformed.shape != shard.shape:
                    raise ValueError("shard_transform must preserve shape")
                shard = transformed
            final_shards[x][y] = shard
    return _reference_all_gather_grid(final_shards, shape, dtype_policy)
