"""A virtual device mesh holding per-device numpy state.

:class:`VirtualMesh` is the functional twin of a fixed, healthy logical
device mesh: an ``x_size x y_size`` grid of devices, each with named
buffers, plus an ``all_reduce`` that runs the runtime collectives over a
named buffer.  :mod:`repro.spmd.graph_exec` executes partition plans on it
(the bit-exact ``validate_plan`` check), and the ``repro-telemetry`` demo
and the benchmark drive its put / all-reduce / get round trip.  The
trainers in :mod:`repro.core` call the collectives directly.  Device death
is modelled where the fleet is: ``run_chaos`` rebuilds onto survivors,
``ClusterState`` tracks dead chips and the degraded DES schedules simulate
healed rings (DESIGN.md §8).

Collectives are routed through :class:`repro.runtime.bucket.GradientBucket`:
``all_reduce`` accepts either one buffer name or a sequence of names, and a
sequence is *fused* — all named buffers travel in a single collective, the
way real trainers bucket their gradients.  The schedule follows the mesh
shape: the 2-D hierarchical all-reduce when both dims exceed 1, a flat ring
otherwise.

Storage is device-major (DESIGN.md §11): every name is one
:class:`~repro.runtime.stacked.StackedValue` — so it has one shape and
dtype across the mesh — plus the set of devices that *hold* it.  ``put``
copies into the device's row, ``get`` serves a zero-copy view of it, and a
row whose device is not a holder (never written) is unobservable.
Collective results are stored lazily replicated — one physical row viewed
read-only by every device — and the first ``put`` after that pays the
broadcast copy (:meth:`StackedValue.materialized`), after which every
device owns a distinct row again.
"""

from __future__ import annotations

import logging
from typing import Iterator, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.refuse import count
from repro.runtime.bucket import GradientBucket
from repro.runtime.stacked import StackedValue

logger = logging.getLogger("repro.runtime")


class VirtualMesh:
    """A logical 2-D grid of numpy 'devices'.

    Parameters
    ----------
    x_size, y_size:
        Logical mesh extent.  For pure data parallelism a 1-D mesh
        (``y_size=1``) is fine; the 2-D hierarchical collective needs both
        dimensions > 1 to exercise both phases.
    """

    def __init__(self, x_size: int, y_size: int = 1) -> None:
        self.x_size = count("x_size", x_size)
        self.y_size = count("y_size", y_size)
        #: One device-major StackedValue per name (DESIGN.md §11) ...
        self._values: dict[str, StackedValue] = {}
        #: ... and the devices whose rows of it are observable.
        self._holders: dict[str, set[tuple[int, int]]] = {}
        self._buckets: dict[tuple, GradientBucket] = {}

    @property
    def num_devices(self) -> int:
        return self.x_size * self.y_size

    def devices(self) -> Iterator[tuple[int, int]]:
        for x in range(self.x_size):
            for y in range(self.y_size):
                yield (x, y)

    # --- buffer management ---------------------------------------------------

    def _device_index(self, device: tuple[int, int]) -> int:
        """Position of a device in x-major (stacked row) order."""
        return device[0] * self.y_size + device[1]

    def _held(self, name: str, device: tuple[int, int]) -> StackedValue:
        """The value ``name`` that ``device`` holds a row of."""
        self._check_device(device)
        if device not in self._holders.get(name, ()):
            raise KeyError(f"buffer {name!r} not present on device {device}")
        return self._values[name]

    def put(self, name: str, device: tuple[int, int], array: np.ndarray) -> None:
        """Place a buffer on one device (copied into the device's row).

        A name has one shape and dtype across the mesh: a ``put`` that
        disagrees with rows other devices hold raises ``ValueError``.
        Writing one device of a replicated value first gives every holder
        its own row.
        """
        self._check_device(device)
        array = np.asarray(array)
        value = self._values.get(name)
        if value is not None and (value.shape, value.dtype) != (array.shape, array.dtype):
            others = self._holders[name] - {device}
            if others:
                raise ValueError(
                    f"buffer {name!r} is {value.dtype}{value.shape} on "
                    f"{sorted(others)}; cannot put {array.dtype}{array.shape} "
                    f"on {device}"
                )
            value = None
        if value is None:
            block = np.empty((self.num_devices,) + array.shape, dtype=array.dtype)
            value = StackedValue(block, self.num_devices)
            self._holders[name] = set()
        self._values[name] = value = value.materialized()
        value.device_view(self._device_index(device))[...] = array
        self._holders[name].add(device)
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device=device).inc(
                array.nbytes
            )

    def put_replicated(self, name: str, array: np.ndarray) -> None:
        """Place identical, independent copies of a buffer on every device.

        One block fill replaces a per-device ``put`` loop while each
        device still owns a distinct memory region.
        """
        arr = np.asarray(array)
        block = np.empty((self.num_devices,) + arr.shape, dtype=arr.dtype)
        block[...] = arr
        self._values[name] = StackedValue(block, self.num_devices)
        self._holders[name] = set(self.devices())
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device="replicated").inc(
                self.num_devices * arr.nbytes
            )

    def get(self, name: str, device: tuple[int, int]) -> np.ndarray:
        """Zero-copy view of one device's buffer (read-only while the
        value is a replicated collective result)."""
        buf = self._held(name, device).device_view(self._device_index(device))
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_get_bytes", device=device).inc(
                buf.nbytes
            )
        return buf

    def _check_device(self, device: tuple[int, int]) -> None:
        x, y = device
        if not (0 <= x < self.x_size and 0 <= y < self.y_size):
            raise ValueError(
                f"device {device} outside mesh {self.x_size}x{self.y_size}"
            )

    # --- collectives ----------------------------------------------------------

    def _bucket_for(self, names: tuple[str, ...]) -> GradientBucket:
        template = {nm: self.get(nm, (0, 0)) for nm in names}
        key = tuple(
            (nm, template[nm].shape, template[nm].dtype.str) for nm in names
        )
        bucket = self._buckets.get(key)
        if bucket is None:
            bucket = self._buckets[key] = GradientBucket(template)
            logger.debug(
                "mesh %dx%d: new fused bucket for %d tensor(s), %d elems",
                self.x_size, self.y_size, len(names), bucket.size,
            )
        return bucket

    def all_reduce(self, name: str | Sequence[str], dtype_policy: str = "f32") -> None:
        """All-reduce named buffer(s) in place across every device.

        ``name`` may be a single buffer name or a sequence of names; a
        sequence is fused into one bucketed collective (one launch for the
        whole set, as bucketed gradient summation does).  The 2-D schedule
        runs when both mesh dims exceed 1, a flat ring otherwise.  Every
        device must hold every name (``KeyError`` otherwise); each name's
        result is stored lazily replicated.
        """
        names = (name,) if isinstance(name, str) else tuple(name)
        hierarchical = self.x_size > 1 and self.y_size > 1
        devices = list(self.devices())
        with _telemetry.tracer.span("mesh_all_reduce", category="comm"):
            bucket = self._bucket_for(names)
            trees = [{nm: self.get(nm, d) for nm in names} for d in devices]
            value = self._values[names[0]]
            if len(names) == 1 and not value.replicated:
                # The stored block already is the fused device-major block.
                block = value.block.reshape(self.num_devices, bucket.size)
            else:
                block = np.empty((len(trees), bucket.size), dtype=bucket.dtype)
                for row, tree in zip(block, trees):
                    bucket.flatten(tree, out=row)
            reduced = bucket.all_reduce_stacked(
                block,
                dtype_policy,
                grid_shape=(self.x_size, self.y_size) if hierarchical else None,
            )
            flat = reduced.block[0]
            for nm in names:
                part = flat[bucket.slice_of(nm)].reshape(bucket.shapes[nm])
                self._values[nm] = StackedValue.replicate(part, self.num_devices)
                self._holders[nm] = set(devices)
        if _telemetry.enabled:
            _telemetry.metrics.counter(
                "mesh_allreduce_launches",
                schedule="2d" if hierarchical else "ring",
            ).inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualMesh({self.x_size}x{self.y_size}, "
            f"buffers={sorted(self._values)})"
        )
