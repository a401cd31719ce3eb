"""Fused multi-tensor gradient buckets.

Real large-scale training does not issue one all-reduce per parameter: the
gradients of the whole model are flattened into one (or a few) contiguous
buffers and reduced with a single fused collective per step, as in the
weight-update-sharding design of Xu et al. (2020) and GSPMD.  This module
provides that abstraction for the functional layer:

* :class:`GradientBucket` records the offset map of a named parameter tree
  (name -> slice of one flat buffer) and converts trees to/from fused flat
  buffers — ``unflatten`` returns zero-copy reshaped views, and
  ``stacked_views`` the ``(n, *shape)`` views a stacked backward pass
  writes every device's gradients through;
* :meth:`GradientBucket.all_reduce` runs a *single* ring or 2-D
  hierarchical collective over the fused per-device buffers;
* :meth:`GradientBucket.segments` maps a device's reduce-scatter shard back
  to the per-parameter segments it covers, and
  :meth:`GradientBucket.tensor_segments` groups every device's segments by
  parameter — what the sharded optimizer update needs to apply per-layer
  math (trust ratios, weight decay skipping) to a fused shard.

The trainers in :mod:`repro.core` and :class:`repro.runtime.mesh.VirtualMesh`
route their gradient collectives through buckets, turning O(num_params)
collective launches per step into one.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter as _perf
from typing import Mapping, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.runtime.collectives import (
    padded_chunk_layout,
    ring_all_reduce_stacked,
    two_phase_all_reduce_stacked,
)
from repro.refuse import count
from repro.runtime.stacked import StackedValue

#: The buckets' counter series (:func:`repro.telemetry.series`): a
#: flatten's seconds, bytes and call, an unflatten's seconds and call, and
#: the segment cache's hits and misses.
_FLATTEN = tuple(
    _telemetry.series(f"bucket_flatten_{what}") for what in ("seconds", "bytes", "calls")
)
_UNFLATTEN = tuple(
    _telemetry.series(f"bucket_unflatten_{what}") for what in ("seconds", "calls")
)
_SEGMENT_HITS = _telemetry.series("bucket_segment_cache_hits")
_SEGMENT_MISSES = _telemetry.series("bucket_segment_cache_misses")


@dataclass(frozen=True)
class BucketSegment:
    """The part of one parameter that falls inside a flat-buffer window.

    ``bucket_slice`` addresses the segment in full-bucket coordinates,
    ``local_slice`` in window (shard) coordinates, and ``tensor_slice`` in
    the parameter's own flattened coordinates.
    """

    name: str
    bucket_slice: slice
    local_slice: slice
    tensor_slice: slice

    @property
    def size(self) -> int:
        return self.bucket_slice.stop - self.bucket_slice.start


class GradientBucket:
    """Offset map for fusing a named tensor tree into one flat buffer."""

    def __init__(
        self,
        template: Mapping[str, np.ndarray],
        dtype: np.dtype | type | None = None,
    ) -> None:
        if not template:
            raise ValueError("bucket template must contain at least one tensor")
        self.names: tuple[str, ...] = tuple(template)
        self.shapes: dict[str, tuple[int, ...]] = {}
        self.offsets: dict[str, int] = {}
        self._slices: dict[str, slice] = {}
        offset = 0
        for name in self.names:
            arr = np.asarray(template[name])
            self.shapes[name] = arr.shape
            self.offsets[name] = offset
            size = arr.size if arr.shape else 1
            self._slices[name] = slice(offset, offset + size)
            offset += size
        self.size = offset
        self.dtype = np.dtype(
            dtype
            if dtype is not None
            else np.result_type(*(np.asarray(template[n]).dtype for n in self.names))
        )
        self._segment_cache: dict[tuple[int, int], tuple[BucketSegment, ...]] = {}
        self._shard_cache: dict[int, tuple[tuple[BucketSegment, ...], ...]] = {}
        self._tensor_cache: dict[int, tuple[tuple[str, slice, tuple[slice, ...]], ...]] = {}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"GradientBucket({len(self.names)} tensors, {self.size} elems, "
            f"{self.dtype})"
        )

    def slice_of(self, name: str) -> slice:
        """Position of one tensor inside the flat buffer."""
        return self._slices[name]

    def flatten(
        self, tree: Mapping[str, np.ndarray], out: np.ndarray | None = None
    ) -> np.ndarray:
        """Pack a tree into one contiguous flat buffer (allocated if needed)."""
        t0 = _perf()
        if out is None:
            out = np.empty(self.size, dtype=self.dtype)
        elif out.shape != (self.size,):
            raise ValueError(f"out must have shape ({self.size},)")
        for name, where in self._slices.items():
            out[where] = np.asarray(tree[name]).reshape(-1)
        if _telemetry.enabled:
            _telemetry.tally_all(
                _FLATTEN, (_perf() - t0, self.size * self.dtype.itemsize, 1)
            )
        return out

    def unflatten(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Split a flat buffer back into named tensors (zero-copy views)."""
        t0 = _perf()
        flat = np.asarray(flat).reshape(-1)
        if flat.size < self.size:
            raise ValueError(
                f"buffer has {flat.size} elements; bucket needs {self.size}"
            )
        tree = {
            name: flat[self.slice_of(name)].reshape(self.shapes[name])
            for name in self.names
        }
        if _telemetry.enabled:
            _telemetry.tally_all(_UNFLATTEN, (_perf() - t0, 1))
        return tree

    def stacked_views(self, block: np.ndarray) -> dict[str, np.ndarray]:
        """``(n, *shape)`` views of a device-major ``(n, >= size)`` block.

        What a stacked computation writes through to fill the block in
        place: each view is checked to alias the block, since a reshape
        that silently copied would leave the writes in a temporary.
        """
        if block.ndim != 2 or block.shape[1] < self.size:
            raise ValueError(
                f"block must be (n, >= {self.size}); got {block.shape}"
            )
        n = block.shape[0]
        views = {}
        for name in self.names:
            view = block[:, self.slice_of(name)].reshape(n, *self.shapes[name])
            if not np.may_share_memory(view, block):
                raise ValueError(f"the ({n}, *shape) view of {name!r} would copy")
            views[name] = view
        return views

    def segments(self, start: int, stop: int) -> tuple[BucketSegment, ...]:
        """Per-tensor segments overlapping the window ``[start, stop)``.

        Cached per window — the sharded update asks for the same n windows
        every step.  Windows extending past ``self.size`` (ring padding)
        simply yield no segments there.
        """
        key = (start, stop)
        cached = self._segment_cache.get(key)
        if cached is not None:
            if _telemetry.enabled:
                _telemetry.tally(_SEGMENT_HITS, 1)
            return cached
        if _telemetry.enabled:
            _telemetry.tally(_SEGMENT_MISSES, 1)
        segs = []
        for name in self.names:
            tensor = self.slice_of(name)
            lo = max(start, tensor.start)
            hi = min(stop, tensor.stop)
            if lo < hi:
                segs.append(
                    BucketSegment(
                        name=name,
                        bucket_slice=slice(lo, hi),
                        local_slice=slice(lo - start, hi - start),
                        tensor_slice=slice(lo - tensor.start, hi - tensor.start),
                    )
                )
        result = tuple(segs)
        self._segment_cache[key] = result
        return result

    def shard_segments(self, num_devices: int) -> tuple[tuple[BucketSegment, ...], ...]:
        """Segments of every device's reduce-scatter shard, in device order.

        Cached per device count as well; a hit counts one segment-cache hit
        per window, as the window lookups it stands for would.
        """
        windows = self._shard_cache.get(num_devices)
        if windows is not None:
            if _telemetry.enabled:
                _telemetry.tally(_SEGMENT_HITS, num_devices)
            return windows
        _, chunk = padded_chunk_layout(num_devices, self.size)
        windows = self._shard_cache[num_devices] = tuple(
            self.segments(d * chunk, (d + 1) * chunk) for d in range(num_devices)
        )
        return windows

    def tensor_segments(
        self, num_devices: int
    ) -> tuple[tuple[str, slice, tuple[slice, ...]], ...]:
        """:meth:`shard_segments` grouped by tensor, in template order.

        Per tensor: its slice of the flat buffer and, in device order, the
        parts of it that fall in each device's reduce-scatter window, as
        slices of the tensor's own flattened range.  The windows are looked
        up through :meth:`shard_segments` (so the lookup counts as one);
        the grouping is cached per device count.
        """
        windows = self.shard_segments(num_devices)
        grouped = self._tensor_cache.get(num_devices)
        if grouped is None:
            parts: dict[str, list[slice]] = {name: [] for name in self.names}
            for window in windows:
                for seg in window:
                    parts[seg.name].append(seg.tensor_slice)
            grouped = self._tensor_cache[num_devices] = tuple(
                (name, self.slice_of(name), tuple(segs))
                for name, segs in parts.items()
            )
        return grouped

    # --- fused collectives ---------------------------------------------------

    def all_reduce(
        self,
        trees: Sequence[Mapping[str, np.ndarray]],
        dtype_policy: str = "f32",
        grid_shape: tuple[int, int] | None = None,
    ) -> list[dict[str, np.ndarray]]:
        """One fused collective over per-device trees; unflattened results.

        List adapter over :meth:`all_reduce_stacked` (which see for
        ``grid_shape``): the trees are flattened into one device-major
        block, and every result tensor is a read-only view of the one
        reduced buffer (writing raises; ``.copy()`` for ownership).
        """
        block = np.empty((len(trees), self.size), dtype=self.dtype)
        for row, tree in zip(block, trees):
            self.flatten(tree, out=row)
        reduced = self.all_reduce_stacked(block, dtype_policy, grid_shape)
        return [self.unflatten(row) for row in reduced.to_list()]

    def all_reduce_stacked(
        self,
        block: np.ndarray | StackedValue,
        dtype_policy: str = "f32",
        grid_shape: tuple[int, int] | None = None,
    ) -> StackedValue:
        """Device-major fused collective: one stacked block in, one out.

        ``block`` is the ``(n, self.size)`` device-major stack of fused
        flat buffers.  ``grid_shape=(x, y)`` selects the 2-D hierarchical
        schedule (devices in x-major order); otherwise a flat ring.
        Returns the reduced fused buffer as a lazily *replicated*
        :class:`StackedValue`, without materializing per-device result
        copies.  Unflatten a device's view (zero-copy, read-only) with
        :meth:`unflatten` when named tensors are needed.
        """
        with _telemetry.tracer.span("bucket_all_reduce", category="comm"):
            n = (
                block.num_devices
                if isinstance(block, StackedValue)
                else block.shape[0]
            )
            if grid_shape is not None:
                x_size, y_size = grid_shape
                if x_size * y_size != n:
                    raise ValueError("grid_shape does not match number of devices")
                return two_phase_all_reduce_stacked(block, grid_shape, dtype_policy)
            return ring_all_reduce_stacked(block, dtype_policy)


class BucketPlan:
    """Partition a parameter tree into backprop-ordered gradient buckets.

    Backprop produces gradients from the last declared tensor back to the
    first, so buckets are *contiguous runs of whole tensors* taken in
    reverse template order: bucket 0 holds the deepest tensors and is the
    first whose collective could launch mid-backward.  The greedy split
    balances element counts, but a tensor is never divided across buckets
    — per-layer optimizer math (LAMB/LARS trust ratios) stays inside one
    bucket, and the per-bucket collective arithmetic is exactly a fused
    :class:`GradientBucket` over that sub-tree.

    Within each bucket, names keep template order; with ``num_buckets=1``
    the single bucket therefore has the identical layout (names, offsets,
    dtype) of a plain ``GradientBucket`` over the full tree, which is what
    keeps the default path bit-identical to the unbucketed trainers.

    ``num_buckets`` is clamped to the number of tensors.
    """

    def __init__(
        self,
        template: Mapping[str, np.ndarray],
        num_buckets: int = 1,
        dtype: np.dtype | type | None = None,
    ) -> None:
        count("num_buckets", num_buckets)
        if not template:
            raise ValueError("bucket plan template must contain at least one tensor")
        names = list(template)
        sizes = {
            name: max(int(np.asarray(template[name]).size), 1) for name in names
        }
        total = sum(sizes.values())
        rev = names[::-1]  # backward production order
        k = min(num_buckets, len(names))
        buckets: list[GradientBucket] = []
        idx = 0
        remaining = total
        for b in range(k):
            buckets_left = k - b
            target = remaining / buckets_left
            take: list[str] = []
            acc = 0
            while idx < len(rev):
                # Leave at least one tensor for each bucket after this one.
                if take and len(rev) - idx <= buckets_left - 1:
                    break
                take.append(rev[idx])
                acc += sizes[rev[idx]]
                idx += 1
                if b < k - 1 and acc >= target:
                    break
            remaining -= acc
            members = set(take)
            ordered = [n for n in names if n in members]
            buckets.append(
                GradientBucket({n: template[n] for n in ordered}, dtype=dtype)
            )
        self.buckets: tuple[GradientBucket, ...] = tuple(buckets)
        self.num_buckets = len(self.buckets)
        self.size = total
        #: Cumulative element fraction produced once bucket ``i`` is complete
        #: (launch order) — the ready-time proxy for the overlap engine.
        cum = 0
        fractions = []
        for bucket in self.buckets:
            cum += bucket.size
            fractions.append(cum / total)
        self.ready_fractions: tuple[float, ...] = tuple(fractions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BucketPlan({self.num_buckets} buckets, {self.size} elems: "
            f"{[b.size for b in self.buckets]})"
        )
