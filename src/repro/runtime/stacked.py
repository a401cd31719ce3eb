"""Device-major stacked mesh values.

A :class:`StackedValue` stores one named mesh value for *all* devices as a
single ``(num_devices, *shape)`` ndarray — the device axis comes first, so
a collective over the whole fleet is one vectorized numpy operation instead
of ``num_devices`` per-device dispatches.  This is the storage layout that
lets the real-numpy runtime execute 4096-device collectives: Mesh-TF and
GSPMD get their scale from exactly this one-op-over-all-devices (SPMD)
execution model.

Two physical layouts share the type:

* **distinct** (``replicated=False``) — ``block[d]`` is device ``d``'s
  buffer; rows are independent memory regions (views of one allocation);
* **replicated** (``replicated=True``) — ``block`` has one physical row
  logically shared by every device.  This is the natural result of an
  all-gather/all-reduce: instead of materializing ``n`` identical copies
  (the dominant cost of the old per-device path), every device's "buffer"
  is a read-only view of the same memory.  Writers must materialize first
  (:meth:`materialized`), which is what :class:`~repro.runtime.mesh.
  VirtualMesh` does lazily on the first per-device write.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np


@dataclass
class StackedValue:
    """One mesh value for every device, stored device-major.

    ``block`` is ``(num_devices, *shape)`` when ``replicated`` is False and
    ``(1, *shape)`` when True (one physical row shared by all devices).
    """

    block: np.ndarray
    num_devices: int
    replicated: bool = False

    def __post_init__(self) -> None:
        self.block = np.asarray(self.block)
        if self.num_devices < 1:
            raise ValueError("num_devices must be >= 1")
        if self.block.ndim < 1:
            raise ValueError("block must have a leading device axis")
        rows = self.block.shape[0]
        if self.replicated:
            if rows != 1:
                raise ValueError("replicated block must have exactly one row")
        elif rows != self.num_devices:
            raise ValueError(
                f"block has {rows} rows for {self.num_devices} devices"
            )

    @property
    def shape(self) -> tuple[int, ...]:
        """Per-device buffer shape (without the device axis)."""
        return self.block.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self.block.dtype

    def device_view(self, index: int) -> np.ndarray:
        """Device ``index``'s buffer as a zero-copy view.

        Replicated rows alias one memory region, so their views are
        returned read-only — an accidental in-place write would silently
        mutate every device at once.  Distinct rows are writable.
        """
        if not 0 <= index < self.num_devices:
            raise IndexError(
                f"device index {index} out of range for {self.num_devices}"
            )
        # ``[i, ...]`` keeps 0-d buffers arrays (a bare ``[i]`` would
        # return a detached scalar).
        if self.replicated:
            view = self.block[0, ...]
            view.flags.writeable = False
            return view
        return self.block[index, ...]

    def rows(self) -> Iterator[np.ndarray]:
        """Per-device views in device order."""
        return (self.device_view(d) for d in range(self.num_devices))

    def to_list(self) -> list[np.ndarray]:
        """Per-device views as a list (the legacy per-device interface)."""
        return list(self.rows())

    def materialized(self) -> "StackedValue":
        """A value whose rows are independent writable memory regions.

        Distinct values are returned as-is (their rows already are); a
        replicated value pays one broadcast copy into a fresh
        ``(num_devices, *shape)`` block — the cost the lazy layout defers
        until someone actually needs per-device ownership.
        """
        if not self.replicated:
            return self
        full = np.empty(
            (self.num_devices,) + self.shape, dtype=self.block.dtype
        )
        full[...] = self.block[0]
        return StackedValue(full, self.num_devices)

    @classmethod
    def stack(cls, arrays: Sequence[np.ndarray]) -> "StackedValue":
        """Pack per-device buffers into one device-major block (one copy)."""
        if not len(arrays):
            raise ValueError("need at least one device buffer")
        return cls(np.stack([np.asarray(a) for a in arrays]), len(arrays))

    @classmethod
    def replicate(cls, array: np.ndarray, num_devices: int) -> "StackedValue":
        """Wrap one buffer as the shared replica of ``num_devices`` devices.

        Zero-copy: the value views ``array``'s memory.  Callers that need
        isolation from later writes to ``array`` should pass a copy.
        """
        arr = np.asarray(array)
        return cls(arr[None, ...], num_devices, replicated=True)
