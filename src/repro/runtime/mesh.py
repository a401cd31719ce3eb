"""A virtual device mesh holding per-device numpy state.

:class:`VirtualMesh` is the functional twin of the hardware topology: a
logical ``x_size x y_size`` grid of devices, each with named buffers, plus
convenience methods that run the runtime collectives over a named buffer.
The trainers in :mod:`repro.core` use it as their execution substrate.

Collectives are routed through :class:`repro.runtime.bucket.GradientBucket`:
``all_reduce`` accepts either one buffer name or a sequence of names, and a
sequence is *fused* — all named buffers travel in a single collective, the
way real trainers bucket their gradients.

Storage is device-major (DESIGN.md §11): every name is one
:class:`~repro.runtime.stacked.StackedValue` — so it has one shape and
dtype across the mesh — plus the set of devices that *hold* it.  ``put``
copies into the device's row, ``get`` serves a zero-copy view of it, and a
row whose device is not a holder (never written, or dropped by
``restore_device``) is unobservable.  Collective results are stored
lazily replicated — one physical row viewed read-only by every holder —
and the first per-device *write* (``put``, ``apply_inplace``) pays the
broadcast copy (:meth:`StackedValue.materialized`), after which every
device owns a distinct row again.
"""

from __future__ import annotations

import logging
from typing import Callable, Iterator, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.resilience.faults import DeviceLostError
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
        if x_size < 1 or y_size < 1:
            raise ValueError("mesh dims must be >= 1")
        self.x_size = x_size
        self.y_size = y_size
        #: One device-major StackedValue per name (DESIGN.md §11) ...
        self._values: dict[str, StackedValue] = {}
        #: ... and the devices whose rows of it are observable.
        self._holders: dict[str, set[tuple[int, int]]] = {}
        self._buckets: dict[tuple, GradientBucket] = {}
        self._dead: set[tuple[int, int]] = set()

    @property
    def num_devices(self) -> int:
        return self.x_size * self.y_size

    def devices(self) -> Iterator[tuple[int, int]]:
        for x in range(self.x_size):
            for y in range(self.y_size):
                yield (x, y)

    # --- fault injection ------------------------------------------------------

    @property
    def num_alive(self) -> int:
        return self.num_devices - len(self._dead)

    @property
    def dead_devices(self) -> frozenset[tuple[int, int]]:
        return frozenset(self._dead)

    def alive_devices(self) -> Iterator[tuple[int, int]]:
        """Devices still healthy, in device (x-major) order."""
        for d in self.devices():
            if d not in self._dead:
                yield d

    def fail_device(self, device: tuple[int, int]) -> None:
        """Kill one device: its buffers become unreachable.

        The buffers are intentionally *not* freed — nothing holds state the
        survivors can read, which is exactly the recovery problem weight-
        update sharding creates (a lost shard exists nowhere else).
        """
        self._check_device(device, require_alive=False)
        if device in self._dead:
            return
        self._dead.add(device)
        logger.warning(
            "mesh %dx%d: device %s failed (%d/%d alive)",
            self.x_size, self.y_size, device, self.num_alive, self.num_devices,
        )
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_device_failures").inc()
        _telemetry.flight_recorder.record(
            "fault", "mesh_device_failed",
            device=list(device), alive=self.num_alive,
        )

    def restore_device(self, device: tuple[int, int]) -> None:
        """Bring a device back (elastic re-expansion after repair).

        Its pre-failure buffers are dropped — a repaired device re-joins
        empty and must be re-populated (normally from a checkpoint).
        """
        self._check_device(device, require_alive=False)
        if device not in self._dead:
            return
        self._dead.discard(device)
        _telemetry.flight_recorder.record(
            "fault", "mesh_device_restored",
            device=list(device), alive=self.num_alive,
        )
        for holders in self._holders.values():
            holders.discard(device)
        logger.info("mesh %dx%d: device %s restored", self.x_size, self.y_size, device)

    # --- buffer management ---------------------------------------------------

    def _device_index(self, device: tuple[int, int]) -> int:
        """Position of a device in x-major (stacked row) order."""
        return device[0] * self.y_size + device[1]

    def _held(self, name: str, device: tuple[int, int]) -> StackedValue:
        """The value ``name`` that live ``device`` holds a row of."""
        self._check_device(device)
        if device not in self._holders.get(name, ()):
            raise KeyError(f"buffer {name!r} not present on device {device}")
        return self._values[name]

    def put(self, name: str, device: tuple[int, int], array: np.ndarray) -> None:
        """Place a buffer on one device (copied into the device's row).

        A name has one shape and dtype across the mesh: a ``put`` that
        disagrees with rows other live devices still hold raises
        ``ValueError``.  Writing one device of a replicated value first
        gives every holder its own row.
        """
        self._check_device(device)
        array = np.asarray(array)
        value = self._values.get(name)
        if value is not None and (value.shape, value.dtype) != (array.shape, array.dtype):
            others = self._holders[name] - self._dead - {device}
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

    def put_stacked(self, name: str, value: StackedValue | np.ndarray) -> None:
        """Place a device-major value covering the whole mesh at once.

        ``value`` is a :class:`StackedValue` (or a ``(num_devices,
        *shape)`` ndarray) whose rows are the per-device buffers in
        x-major order.  It is stored as given (no copy); ``get`` serves
        zero-copy row views of it.
        """
        if not isinstance(value, StackedValue):
            value = StackedValue(np.asarray(value), self.num_devices)
        if value.num_devices != self.num_devices:
            raise ValueError(
                f"stacked value covers {value.num_devices} devices; "
                f"mesh has {self.num_devices}"
            )
        self._values[name] = value
        self._holders[name] = set(self.alive_devices())
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device="stacked").inc(
                value.block.nbytes
            )

    def put_replicated(self, name: str, array: np.ndarray) -> None:
        """Place identical, independent copies of a buffer on every device.

        One block fill replaces a per-device ``put`` loop while each
        device still owns a distinct memory region.  Dead devices are
        skipped — replication targets the surviving fleet.
        """
        arr = np.asarray(array)
        block = np.empty((self.num_devices,) + arr.shape, dtype=arr.dtype)
        block[...] = arr
        self._values[name] = StackedValue(block, self.num_devices)
        self._holders[name] = set(self.alive_devices())
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_put_bytes", device="replicated").inc(
                self.num_alive * arr.nbytes
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

    def get_stacked(self, name: str) -> StackedValue:
        """The named value, device-major and zero-copy.

        Every device must hold the buffer and be alive.
        """
        for d in self.devices():
            self._held(name, d)
        value = self._values[name]
        if _telemetry.enabled:
            _telemetry.metrics.counter("mesh_get_bytes", device="stacked").inc(
                value.block.nbytes
            )
        return value

    def apply(self, name: str, fn: Callable[[np.ndarray], np.ndarray]) -> None:
        """Apply a function to the named buffer on every surviving device.

        Every row is computed before the value is replaced, so ``fn`` may
        change the buffer's shape or dtype (consistently across devices).
        """
        alive = list(self.alive_devices())
        rows = [fn(self.get(name, d)) for d in alive]
        self._holders[name].clear()  # every surviving row is replaced
        for d, row in zip(alive, rows):
            self.put(name, d, row)

    def apply_inplace(self, name: str, fn: Callable[[np.ndarray], None]) -> None:
        """Apply a *mutating* function to the named buffer on every device.

        ``fn`` must update its argument in place (its return value is
        ignored).  No copies are made unless the value is a replicated
        collective result: its rows alias one memory region, and a
        per-device mutation needs per-device ownership.
        """
        try:
            value = self._values[name] = self._values[name].materialized()
        except KeyError:
            raise KeyError(f"buffer {name!r} not present on mesh") from None
        holders = self._holders[name]
        for device in self.alive_devices():
            if device in holders:
                fn(value.device_view(self._device_index(device)))

    def _check_device(self, device: tuple[int, int], require_alive: bool = True) -> None:
        x, y = device
        if not (0 <= x < self.x_size and 0 <= y < self.y_size):
            raise ValueError(
                f"device {device} outside mesh {self.x_size}x{self.y_size}"
            )
        if require_alive and device in self._dead:
            raise DeviceLostError(device)

    # --- collectives ----------------------------------------------------------

    def _bucket_for(self, names: tuple[str, ...]) -> GradientBucket:
        template_device = next(self.alive_devices())  # all_reduce checked
        template = {nm: self.get(nm, template_device) for nm in names}
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

    def all_reduce(
        self,
        name: str | Sequence[str],
        dtype_policy: str = "f32",
        hierarchical: bool | None = None,
        shard_transform: Callable[[np.ndarray], np.ndarray] | None = None,
        on_fault: str = "raise",
    ) -> None:
        """All-reduce named buffer(s) in place across every surviving device.

        ``name`` may be a single buffer name or a sequence of names; a
        sequence is fused into one bucketed collective (one launch for the
        whole set, as bucketed gradient summation does).  ``hierarchical``
        selects the 2-D schedule (default when both mesh dims exceed 1).
        ``shard_transform`` is the fused sharded-update hook of
        :func:`repro.runtime.collectives.two_phase_all_reduce_stacked`,
        applied to the fused flat shards, and is only valid with the
        hierarchical schedule.

        ``on_fault`` controls the semantics on a mesh with holes:
        ``"raise"`` (default) raises :class:`DeviceLostError` naming the
        dead devices — the lockstep behavior of a synchronous fleet;
        ``"heal"`` runs a degraded collective over the survivors only (the
        2-D grid schedule needs a full grid, so healing falls back to a
        flat ring over the survivors, the way Figure 4's hop rings route
        around planned holes).  Dead devices' buffers do not contribute and
        are not updated.  Healthy and healed collectives share one body:
        the participants' rows are packed into one device-major block, the
        stacked collective runs, and each name's result is stored lazily
        replicated with the participants as its holders.
        """
        if on_fault not in ("raise", "heal"):
            raise ValueError(f"on_fault must be 'raise' or 'heal', got {on_fault!r}")
        names = (name,) if isinstance(name, str) else tuple(name)
        degraded = bool(self._dead)
        if degraded:
            if on_fault == "raise":
                err = DeviceLostError(
                    sorted(self._dead),
                    f"all_reduce on mesh with dead device(s) "
                    f"{sorted(self._dead)}; pass on_fault='heal' to degrade",
                )
                _telemetry.on_terminal_failure(err, origin="mesh.all_reduce")
                raise err
            if self.num_alive < 1:
                raise DeviceLostError(sorted(self._dead), "every mesh device is dead")
        if hierarchical is None:
            hierarchical = self.x_size > 1 and self.y_size > 1 and not degraded
        elif hierarchical and degraded:
            # The 2-D schedule addresses a full x*y grid; holes break it.
            logger.info(
                "mesh %dx%d: %d hole(s) — degrading 2-D schedule to survivor ring",
                self.x_size, self.y_size, len(self._dead),
            )
            hierarchical = False
        if not hierarchical and shard_transform is not None:
            raise ValueError("shard_transform requires the hierarchical schedule")
        participants = list(self.alive_devices())
        with _telemetry.tracer.span("mesh_all_reduce", category="comm"):
            bucket = self._bucket_for(names)
            trees = [{nm: self.get(nm, d) for nm in names} for d in participants]
            value = self._values[names[0]]
            if len(names) == 1 and not degraded and not value.replicated:
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
                shard_transform=shard_transform,
            )
            flat = reduced.block[0]
            for nm in names:
                part = flat[bucket.slice_of(nm)].reshape(bucket.shapes[nm])
                self._values[nm] = StackedValue.replicate(part, self.num_devices)
                self._holders[nm] = set(participants)
        if _telemetry.enabled:
            _telemetry.metrics.counter(
                "mesh_allreduce_launches",
                schedule="2d" if hierarchical else "ring",
            ).inc()
            if degraded:
                _telemetry.metrics.counter("mesh_degraded_collectives").inc()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"VirtualMesh({self.x_size}x{self.y_size}, "
            f"buffers={sorted(self._values)})"
        )
