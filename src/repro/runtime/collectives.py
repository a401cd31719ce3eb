"""Numpy-executed ring and 2-D hierarchical collectives.

The algorithms replicate the data motion of the hardware schedules:

* ring reduce-scatter — ``n - 1`` steps; at step ``s`` device ``d`` forwards
  chunk ``(d - s) mod n`` to device ``(d + 1) mod n``, which accumulates it;
* ring all-gather — the same motion without reduction;
* 2-D hierarchical all-reduce — reduce-scatter along Y per mesh column,
  reduce-scatter along X per row, then all-gathers along X and Y.  The
  *sharded weight update* of Section 3.2/3.3 runs between the two halves:
  :func:`reduce_scatter_grid` / :func:`ring_reduce_scatter` hand each
  device its shard, and the all-gathers return the updated values.

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
  (property-tested in ``tests/test_runtime_collectives.py``), with one
  exception under f32/f64: where two different NaN payloads meet in one
  add, numpy keeps one of them by the length of the add, so the kernel's
  prefix/suffix adds and the reference's per-chunk adds may keep different
  payloads.  Such an element is NaN on both sides; bf16 writes every NaN
  as one word.

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
(:func:`_linear_ring_passes` over ``(B, size)`` rows), so a 64x64-grid phase is
``O(ring_steps)`` numpy operations rather than ``O(x * y * ring_steps)``
Python iterations.  This is what pushes the runtime from ~256 to 4096
real devices.

Padding metadata is cached keyed by ``(n, size)`` and the row scratch a
collective converts its sources through (see :class:`_Wire`) is pooled
keyed by shape/dtype — both behind *bounded* LRUs so a
workload sweeping many distinct shapes cannot grow them without limit —
and repeated steps (the trainer hot loop) pay zero setup and zero large
allocations beyond their outputs.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache
from time import perf_counter as _perf
from typing import Callable, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.numerics.bfloat16 import (
    _nan_mask,
    _round_inplace_nonan,
    _round_into,
    bf16_add,
    round_to_bfloat16,
)
from repro.refuse import count
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


#: ``dtype.char`` -> policy label of a gather's wire dtype (``dtype.name``
#: is a slow property, and the gather asks on every step).
_WIRE_POLICY = {"d": "f64", "f": "f32"}


def _comm_span(name: str, t0: float) -> float:
    """Emit the ``comm`` span ``name`` begun at mark ``t0``; return its end.

    The collectives time themselves anyway (``collective_seconds``), so
    their spans are cut from those marks rather than opened around the
    work.  Only called when telemetry is enabled.
    """
    end = _perf()
    tracer = _telemetry.tracer
    tracer.emit(name, "comm", tracer.actor, t0, end)
    return end


def _ring_bytes(n: int, chunk: int, itemsize: int) -> int:
    """Bytes one ring phase puts on the wire: ``n - 1`` hops, every device
    forwarding one ``chunk``-element message per hop — the same traffic
    term the alpha-beta cost model charges."""
    return n * (n - 1) * chunk * itemsize


class _Launch:
    """The series one launch shape writes, interned once
    (:func:`~repro.telemetry.registry.intern`): its bytes per wire axis,
    its ring steps and the launch, then its ``collective_seconds``
    histogram."""

    __slots__ = ("counters", "seconds")

    def __init__(self, op: str, axis: str, policy: str, wire_axes: tuple[str, ...]) -> None:
        series = _telemetry.series
        self.counters = (
            *(series("collective_bytes", op=op, axis=wire_axis, policy=policy)
              for wire_axis in wire_axes),
            series("collective_ring_steps", op=op, axis=axis),
            series("collective_launches", op=op, axis=axis),
        )
        self.seconds = _telemetry.intern(
            "histogram", "collective_seconds", {"op": op, "axis": axis}
        )


class _Launches(dict):
    """Policy -> the :class:`_Launch` of one call site's op and axes."""

    def __init__(self, op: str, axis: str, *wire_axes: str) -> None:
        super().__init__()
        self.shape = (op, axis, wire_axes)

    def __missing__(self, policy: str) -> _Launch:
        op, axis, wire_axes = self.shape
        launch = self[policy] = _Launch(op, axis, policy, wire_axes)
        return launch


_RING_REDUCE_SCATTER = _Launches("reduce_scatter", "ring", "ring")
_RING_ALL_GATHER = _Launches("all_gather", "ring", "ring")
_RING_ALL_REDUCE = _Launches("all_reduce", "ring", "ring")
_REDUCE_SCATTER_Y = _Launches("reduce_scatter", "y", "y")
_REDUCE_SCATTER_X = _Launches("reduce_scatter", "x", "x")
_ALL_GATHER_GRID = _Launches("all_gather", "xy", "x", "y")
_TWO_PHASE_LAUNCHES = _telemetry.series(
    "collective_launches", op="two_phase_all_reduce", axis="xy"
)


def _record_collective(
    launch: _Launch, steps: int, seconds: float, *wire_bytes: int
) -> None:
    """Account one collective launch: the bytes each of its phases put on
    the wire (``wire_bytes``, one per wire axis of ``launch``), its ring
    steps and the launch, counted through
    :func:`~repro.telemetry.step.tally`, and its measured time.

    Only called when telemetry is enabled.
    """
    _telemetry.tally_all(launch.counters, (*wire_bytes, steps, 1))
    _telemetry.metrics.child(launch.seconds).observe(seconds)


class _LRUBufferPool:
    """Bounded LRU of reusable staging buffers keyed by (shape, dtype).

    The old pool cleared itself wholesale past a size threshold, throwing
    away the hot-loop buffers along with the stale ones; this one evicts
    only least-recently-used entries, and its hit/miss/eviction counts are
    exact (exposed as ``scratch_pool_cache_*`` gauges at snapshot time).
    Not thread-safe (nothing in the functional layer is).
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = count("maxsize", maxsize)
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
    rows are broadcasts of one physical row).  With a block, ``flats`` is
    that same array, whose rows are the devices' flat buffers.
    """
    if isinstance(arrays, StackedValue):
        n = arrays.num_devices
        shape = tuple(arrays.shape)
        flat2 = arrays.block.reshape(arrays.block.shape[0], -1)
        if arrays.replicated:
            return None, [flat2[0]] * n, n, shape
        if flat2.flags.c_contiguous:
            return flat2, flat2, n, shape
        return None, list(flat2), n, shape
    if isinstance(arrays, np.ndarray) and arrays.ndim >= 2:
        n = arrays.shape[0]
        if n == 0:
            raise ValueError("need at least one device buffer")
        shape = tuple(arrays.shape[1:])
        flat2 = arrays.reshape(n, -1)
        if flat2.flags.c_contiguous:
            return flat2, flat2, n, shape
        return None, list(flat2), n, shape
    shape = _check_same_shape(arrays)
    flats = [np.asarray(a).reshape(-1) for a in arrays]
    return None, flats, len(flats), tuple(shape)


@lru_cache(maxsize=256)
def _ring_sweeps(
    n: int, size: int, chunk: int
) -> tuple[tuple[tuple, ...], tuple[tuple, ...]]:
    """The block operations of :func:`_linear_ring_passes`, as pieces.

    Pass one: ``(d, read, own, below)`` per device ``d``: the prefix of its
    row it reads, its own slot (copied; ``None`` when it lies in the
    padding) and the head below it (added; ``None`` for device 0).  Pass
    two: ``(d, above)`` for every device with a non-empty tail above its
    slot.  A piece is ``(..., slice)``, so it cuts a flat row and a stack
    of rings' rows alike.  A pure function of the layout, so a training
    loop, which reduces the same layout every step, builds it once.
    """
    first = []
    for d in range(n):
        lo = d * chunk
        hi = min(lo + chunk, size)
        end = min(lo, size)
        if hi > 0:
            first.append((
                d, (..., slice(0, hi)),
                (..., slice(lo, hi)) if hi > lo else None,
                (..., slice(0, end)) if end > 0 else None,
            ))
    second = []
    for d in range(n - 1):
        start = min((d + 1) * chunk, size)
        if start < size:
            second.append((d, (..., slice(start, size))))
    return tuple(first), tuple(second)


class _Wire:
    """One collective's reads of its raw sources in the policy's wire format.

    Every source element is read by exactly one hop of
    :func:`_linear_ring_passes`: its device's prefix in pass one, or its
    tail in pass two.  So :meth:`load` converts a source piece at that hop
    -- cast to the wire dtype, and under bf16 rounded -- and each element
    is still converted exactly once: the bits of converting the whole
    stack up front, without an ``(n, size)`` staging block.  The piece
    lands in ``buf``, one source row per ring taken once per collective
    and sliced per piece, and once a hop's add is done the same slice
    holds the bias words of its rounding (:meth:`round`).  Under bf16 a
    piece gets one NaN probe (:func:`~repro.numerics.bfloat16._round_into`)
    and a source that is not float32 is first cast into ``spare``, a
    second such row, so the double rounding f64 -> f32 -> bf16 is the
    reference's.

    ``convert=False`` serves the X phase of the 2-D schedule, whose sources
    (the Y accumulator) are already on the wire: it reads them as they are
    and only rounds the hops.
    """

    def __init__(
        self, shape: tuple[int, ...], dtype: np.dtype, bf16: bool,
        convert: bool = True, cast: bool = False,
    ) -> None:
        rows = _scratch((2 if cast else 1, *shape), dtype)
        self.buf, self.spare = rows[0], (rows[1] if cast else None)
        self.bf16, self.convert = bf16, convert

    def load(self, src: np.ndarray, piece: tuple) -> np.ndarray:
        """``src``'s rows with ``[piece]`` on the wire: ``buf`` if converted."""
        if not self.convert:
            return src
        raw, buf = src[piece], self.buf[piece]
        if not self.bf16:
            buf[...] = raw
        elif raw.dtype == np.float32:
            _round_into(raw, buf)
        else:
            spare = self.spare[piece]
            np.copyto(spare, raw, casting="same_kind")
            _round_into(spare, buf)
        return self.buf

    def round(self, acc: np.ndarray, piece: tuple) -> None:
        """The hop's rounding of the accumulator piece it just added into."""
        if self.bf16:
            _round_inplace_nonan(acc, self.buf[piece])


def _wire_for(
    policy: str, dtype: np.dtype, src_dtypes: set, shape: tuple[int, ...]
) -> _Wire | None:
    """The :class:`_Wire` of a collective over raw sources of ``src_dtypes``.

    ``None`` when there is nothing to do per piece: sources already in the
    wire dtype of an f32/f64 policy are added straight off their buffers,
    zero copies and no per-hop work.
    """
    bf16 = policy == "bf16"
    if not bf16 and src_dtypes == {dtype}:
        return None
    return _Wire(shape, dtype, bf16, cast=bf16 and src_dtypes != {dtype})


def _canonical_nans(out: np.ndarray) -> None:
    """Write every NaN of a bf16 collective's output as ``0x7FC00000``.

    That is what the checked rounding of every reference hop writes.  The
    per-hop rounding keeps a NaN as the add made it, and x86's ``inf +
    -inf`` is the default NaN ``0xFFC00000``; every other bit already
    agrees, since no non-NaN result depends on a NaN's sign or payload.
    One ``maximum`` pass looks for NaN, which is rare.
    """
    nan_mask = _nan_mask(out)
    if nan_mask is not None:
        out[nan_mask] = np.nan


def _linear_ring_passes(
    acc: np.ndarray, srcs, size: int, chunk: int, wire: _Wire | None = None,
) -> np.ndarray:
    """Ring reduce-scatter as two linear sweeps of contiguous block adds.

    ``acc`` is the flat ``(padded,)`` accumulator whose chunk ``c`` is slot
    ``c``; ``srcs[d]`` is device ``d``'s raw flat buffer (``size``
    elements).  Slot ``c`` must accumulate devices in the cyclic ring order
    ``c, c+1, ..., n-1, 0, ..., c-1`` — which a linear sweep over devices
    realizes exactly: in pass one device ``d`` *initializes* its own slot
    (a copy, so signed zeros and NaN payloads survive bit-exactly until two
    payloads meet in an add; see the module docstring) and is added to
    every slot below ``d``; in pass two it is added to every slot above
    ``d``.  Each step is therefore one contiguous prefix/suffix add
    straight off the source buffer (operand order ``contribution + acc``,
    matching ``reducer(chunks[dst][c], chunks[d][c])`` of the reference
    schedule) — no staging copies, no index arrays, and the accumulator
    stays cache-resident.  With a ``wire`` (see :func:`_wire_for`) the
    part of a row a pass reads is converted to the wire format there, its
    only read, and under bf16 each touched region is re-rounded after its
    add, exactly one rounding per slot per hop.  The pieces come from
    :func:`_ring_sweeps`.

    ``B`` independent rings run as one call when ``acc`` is ``(B,
    padded)`` and ``srcs[d]`` is ``(B, size)`` (row ``b`` is ring ``b``'s
    device ``d``; any strided view works, e.g. the Y accumulator feeding
    the X phase of the 2-D schedule).  Every add and round is elementwise
    and the rings are data-independent, so each row runs the identical
    operation sequence bit for bit, but a grid phase costs
    ``O(ring_steps)`` numpy calls instead of ``O(B * ring_steps)``, which
    is what makes 64x64-grid (4096-device) collectives executable.

    Padding slots (``>= size``) are never written and must be pre-zeroed.
    """
    first, second = _ring_sweeps(len(srcs), size, chunk)
    for d, read, own, below in first:
        src = srcs[d] if wire is None else wire.load(srcs[d], read)
        if own is not None:
            acc[own] = src[own]
        if below is not None:
            head = acc[below]
            np.add(src[below], head, out=head)
            if wire is not None:
                wire.round(head, below)
    for d, above in second:
        src = srcs[d] if wire is None else wire.load(srcs[d], above)
        tail = acc[above]
        np.add(src[above], tail, out=tail)
        if wire is not None:
            wire.round(tail, above)
    return acc


def _source_dtypes(flats, block: np.ndarray | None) -> set:
    return {block.dtype} if block is not None else {f.dtype for f in flats}


def _ring_reduce_scatter_impl(
    arrays, dtype_policy: str
) -> tuple[np.ndarray, tuple[int, ...], int]:
    """Shared core: returns ``(shards (n, chunk), shape, padded)``.

    ``arrays`` may be a legacy per-device sequence, a device-major
    ``(n, *shape)`` ndarray, or a :class:`StackedValue`; either way the
    kernel reads the devices' raw rows (see :class:`_Wire`).
    """
    dtype = _dtype_for(dtype_policy)
    block, flats, n, shape = _as_device_block(arrays)
    size = math.prod(shape)
    padded, chunk = padded_chunk_layout(n, size)
    wire = _wire_for(dtype_policy, dtype, _source_dtypes(flats, block), (size,))
    acc = np.empty(padded, dtype=dtype)
    if padded > size:
        acc[size:] = 0
    _linear_ring_passes(acc, flats, size, chunk, wire)
    if dtype_policy == "bf16":
        _canonical_nans(acc)
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
    shards, shape, padded = _ring_reduce_scatter_impl(arrays, dtype_policy)
    if _telemetry.enabled:
        n, chunk = shards.shape
        _record_collective(
            _RING_REDUCE_SCATTER[dtype_policy], n - 1,
            _comm_span("ring_reduce_scatter", t0) - t0,
            _ring_bytes(n, chunk, shards.itemsize),
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
    size = math.prod(value.shape)
    t0 = _perf()
    if value.block is not None:
        full = value.block.reshape(-1)[:size]
    else:
        full = np.concatenate(value.shards)[:size]
    result = StackedValue.replicate(full.reshape(value.shape), n)
    if not _telemetry.enabled:
        return result
    seconds = _comm_span("ring_all_gather", t0) - t0
    if n > 1:
        # The gather is pure data movement; the wire dtype stands in for
        # the policy label (bf16 shards travel as f32, matching the wire).
        policy = _WIRE_POLICY.get(full.dtype.char) or full.dtype.name
        _record_collective(
            _RING_ALL_GATHER[policy], n - 1, seconds,
            _ring_bytes(n, value.padded_size // n, full.dtype.itemsize),
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
    under every dtype policy, but for which of two NaN payloads survives
    an f32/f64 add: see the module docstring); its shards land as rows of
    one contiguous block in chunk order, so the gather phase reads the
    reduced buffer straight off the block and returns it as one replicated
    :class:`StackedValue` instead of ``n`` per-device copies.  This is the
    hot path the trainers use: stacked gradients in, one shared reduced
    buffer out.
    """
    t0 = _perf()
    shards, shape, _ = _ring_reduce_scatter_impl(arrays, dtype_policy)
    n = shards.shape[0]
    size = math.prod(shape)
    full = shards.reshape(-1)[:size]
    result = StackedValue.replicate(full.reshape(shape), n)
    if _telemetry.enabled:
        # Reduce-scatter + all-gather: twice the one-phase ring traffic.
        _record_collective(
            _RING_ALL_REDUCE[dtype_policy], 2 * (n - 1),
            _comm_span("ring_all_reduce", t0) - t0,
            _ring_bytes(n, 2 * shards.shape[1], shards.itemsize),
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


def _stacked_rows(flats, block: np.ndarray | None) -> np.ndarray:
    """The sources as one ``(n, size)`` array of raw rows.

    The grid phases batch their rings over one source array, so a list
    input (the grid list adapters) is copied into a pooled block as it is --
    one bit-preserving copy that buys ``O(ring_steps)`` instead of ``O(n *
    ring_steps)`` kernel dispatches.  A device-major block is used as-is.
    """
    if block is not None:
        return block
    dtype = np.result_type(*_source_dtypes(flats, None))
    rows = _scratch((len(flats), flats[0].size), dtype)
    for d, f in enumerate(flats):
        rows[d] = f
    return rows


class TwoPhaseAllReduce:
    """One 2-D hierarchical all-reduce, fed a group of mesh columns at a time.

    Phase 1 (Y) is ``x_size`` independent column rings, so it need not
    wait for the whole mesh: :meth:`reduce_columns` takes the sources of
    whole columns ``x0 … x0 + cols - 1`` (x-major, ``y_size`` rows each)
    and reduces them into those rows of the ``(x_size, padded_y)`` Y
    accumulator.  Once every column is in, :meth:`reduce_scatter` runs
    phase 2 (X) and returns the ``(y_size, x_size, x_chunk)`` shard block
    (``shards3[y, x]`` is device (x, y)'s fully reduced shard: X-chunk
    ``x`` of Y-chunk ``y``), and :meth:`all_reduce` adds the gather.

    The whole-block entry points (:func:`two_phase_all_reduce_stacked`,
    :func:`reduce_scatter_grid`) feed every column in one call; the
    data-parallel trainer feeds each column as its backward ends, so it
    holds one column of gradients, not the mesh's.  The bits do not
    depend on the grouping: each column ring reads only its own column,
    in the same ring order, and the batched kernel is row-independent.
    A group makes no choice of its own: each source piece is probed for
    NaN as it is converted, and every hop takes the same rounding.

    Telemetry: one ``reduce_scatter_y`` span per :meth:`reduce_columns`
    call, but one Y launch (counters and ``collective_seconds`` over the
    summed ring time) recorded when the X phase starts, as the
    whole-block call always recorded.  The ``two_phase_all_reduce`` span
    runs from the last column group's Y phase to the gather.
    """

    def __init__(
        self, grid_shape: tuple[int, int], shape: tuple[int, ...], dtype_policy: str
    ) -> None:
        self.x_size, self.y_size = grid_shape
        if self.x_size < 1 or self.y_size < 1:
            raise ValueError("grid_shape dims must be >= 1")
        self.dtype = _dtype_for(dtype_policy)
        self.dtype_policy = dtype_policy
        self.shape = tuple(shape)
        self.size = math.prod(self.shape)
        padded_y, self.y_chunk = padded_chunk_layout(self.y_size, self.size)
        self.acc_y = np.empty((self.x_size, padded_y), dtype=self.dtype)
        self.acc_y[:, self.size:] = 0
        self._columns = 0
        self._y_seconds = 0.0
        self._start = 0.0

    def reduce_columns(self, arrays, x0: int = 0) -> None:
        """Phase 1 for whole columns ``x0 …``: ``arrays`` is their x-major
        device-major stack (block, :class:`StackedValue` or sequence)."""
        self._start = _perf()
        block, flats, n, shape = _as_device_block(arrays)
        cols, rest = divmod(n, self.y_size)
        if rest or math.prod(shape) != self.size or not 0 <= x0 <= self.x_size - cols:
            raise ValueError(
                f"{n} buffers of shape {shape} are not whole columns "
                f"{x0}.. of a {self.x_size}x{self.y_size} grid of {self.shape}"
            )
        srcs2 = _stacked_rows(flats, block)
        wire = _wire_for(
            self.dtype_policy, self.dtype, {srcs2.dtype}, (cols, self.size)
        )
        t0 = _perf()
        _linear_ring_passes(
            self.acc_y[x0:x0 + cols],
            srcs2.reshape(cols, self.y_size, self.size).swapaxes(0, 1),
            self.size, self.y_chunk, wire,
        )
        self._columns += cols
        if _telemetry.enabled:
            self._y_seconds += _comm_span("reduce_scatter_y", t0) - t0

    def reduce_scatter(self) -> np.ndarray:
        """Phase 2 over the full Y accumulator; the shard block."""
        x_size, y_size, y_chunk = self.x_size, self.y_size, self.y_chunk
        if self._columns != x_size:
            raise RuntimeError(
                f"{self._columns} of {x_size} columns reduced before the X phase"
            )
        dtype, policy = self.dtype, self.dtype_policy
        if _telemetry.enabled:
            # x_size concurrent column rings of y_size members each.
            _record_collective(
                _REDUCE_SCATTER_Y[policy], y_size - 1, self._y_seconds,
                _ring_bytes(y_size, x_size * y_chunk, dtype.itemsize),
            )
        # For each Y-shard index, a ring across columns.  Sources are the Y
        # accumulators (already on the wire, so bf16 only rounds the hops):
        # device x of ring y contributes Y-chunk y of mesh column x, so the
        # Y accumulator block, viewed (x, y, y_chunk), is the rings' sources.
        bf16 = policy == "bf16"
        wire = _Wire((y_size, y_chunk), dtype, bf16, convert=False) if bf16 else None
        acc_y3 = self.acc_y.reshape(x_size, y_size, y_chunk)
        padded_x, x_chunk = padded_chunk_layout(x_size, y_chunk)
        t0 = _perf()
        x_shards = np.empty((y_size, padded_x), dtype=dtype)
        x_shards[:, y_chunk:] = 0
        _linear_ring_passes(x_shards, acc_y3, y_chunk, x_chunk, wire)
        if bf16:
            _canonical_nans(x_shards)
        if _telemetry.enabled:
            # y_size concurrent row rings over the already-1/y payload.
            _record_collective(
                _REDUCE_SCATTER_X[policy], x_size - 1,
                _comm_span("reduce_scatter_x", t0) - t0,
                _ring_bytes(x_size, y_size * x_chunk, dtype.itemsize),
            )
        return x_shards.reshape(y_size, x_size, x_chunk)

    def all_reduce(self) -> StackedValue:
        """Phase 2 and the gather: the reduced buffer, replicated."""
        result = _all_gather_grid_core(
            self.reduce_scatter(), self.shape, self.dtype_policy
        )
        if _telemetry.enabled:
            _comm_span("two_phase_all_reduce", self._start)
            _telemetry.tally(_TWO_PHASE_LAUNCHES, 1)
        return result


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
    size = math.prod(shape)
    _, y_chunk = padded_chunk_layout(y_size, size)
    padded_x, x_chunk = padded_chunk_layout(x_size, y_chunk)
    t0 = _perf()
    full = shards3.reshape(y_size, padded_x)[:, :y_chunk].reshape(-1)[:size]
    if np.shares_memory(full, shards3):
        # Zero-copy assembly aliases the shard block; the replicated
        # result must own its memory.
        full = full.copy()
    result = StackedValue.replicate(full.reshape(shape), x_size * y_size)
    if _telemetry.enabled:
        itemsize = shards3.dtype.itemsize
        _record_collective(
            _ALL_GATHER_GRID[dtype_policy], (x_size - 1) + (y_size - 1),
            _comm_span("all_gather_grid", t0) - t0,
            _ring_bytes(x_size, y_size * x_chunk, itemsize),
            _ring_bytes(y_size, x_size * y_chunk, itemsize),
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
    owns X-chunk ``x`` of Y-chunk ``y``.  List adapter over
    :class:`TwoPhaseAllReduce`, all columns in one call; the shards are
    distinct rows of its one shard block.
    """
    x_size, y_size = _grid_shape(grid)
    flats = [g for col in grid for g in col]
    grid_all_reduce = TwoPhaseAllReduce(
        (x_size, y_size), _check_same_shape(flats), dtype_policy
    )
    grid_all_reduce.reduce_columns(flats)
    shards3 = grid_all_reduce.reduce_scatter()
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
    grid: Sequence[Sequence[np.ndarray]], dtype_policy: str = "f32"
) -> list[list[np.ndarray]]:
    """The full 2-D hierarchical all-reduce over a ``grid[x][y]`` of buffers.

    List adapter over :func:`two_phase_all_reduce_stacked`: the ``[x][y]``
    results are read-only views of its one reduced buffer (writing raises;
    ``.copy()`` for ownership).
    """
    x_size, y_size = _grid_shape(grid)
    reduced = two_phase_all_reduce_stacked(
        [g for col in grid for g in col], (x_size, y_size), dtype_policy
    )
    return _grid_rows(reduced.to_list(), x_size, y_size)


def two_phase_all_reduce_stacked(
    arrays, grid_shape: tuple[int, int], dtype_policy: str = "f32"
) -> StackedValue:
    """Device-major 2-D hierarchical all-reduce with a replicated result.

    ``arrays`` is a device-major ``(x * y, *shape)`` block (or
    :class:`StackedValue`, or a flat per-device sequence) in x-major order;
    ``grid_shape`` is the mesh extent.  Both ring phases run as batched
    stacked kernels and the gather phase returns one replicated
    :class:`StackedValue` instead of ``x * y`` materialized copies.
    """
    x_size, y_size = grid_shape
    _, _, n, shape = _as_device_block(arrays)
    if n != x_size * y_size:
        raise ValueError(
            f"{n} device buffers do not fill a {x_size}x{y_size} grid"
        )
    grid_all_reduce = TwoPhaseAllReduce(grid_shape, shape, dtype_policy)
    grid_all_reduce.reduce_columns(arrays)
    return grid_all_reduce.all_reduce()


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
    grid: Sequence[Sequence[np.ndarray]], dtype_policy: str = "f32"
) -> list[list[np.ndarray]]:
    shape = np.asarray(grid[0][0]).shape
    reduced = _reference_reduce_scatter_grid(grid, dtype_policy)
    final_shards = [[sv.shards[0] for sv in col] for col in reduced]
    return _reference_all_gather_grid(final_shards, shape, dtype_policy)
