"""Chip and slice bookkeeping for a shared, multi-tenant pod.

A :class:`ClusterState` owns the pod's ``(x, y)`` chip grid and hands out
**rectangular mesh slices** to jobs — the per-workload pod carving of the
MLPerf-0.6 TPU-pods setup (one tenant gets a contiguous sub-mesh whose
rings never cross another tenant's traffic).  The same row-major
:func:`~repro.resilience.faults.host_map` rule that drives preemption
failure domains everywhere else in the repo maps the pod's chips onto
hosts, so a host-level :class:`~repro.resilience.faults.PreemptionSignal`
names exactly the chips it takes down.

Chips have three independent facts tracked here: an *owner* (which job's
slice they belong to, if any), *dead* (killed by a fault plan and not yet
healed), and the host that drives them.  A dead chip inside a slice stays
assigned — the owning job shrinks around it and regrows in place when the
chip heals; a dead free chip is simply not allocatable until healed.

Everything is deterministic: allocation scans anchors in row-major order
(first fit, trying the rotated shape second), so the same request stream
always produces the same packing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.resilience.faults import Device, host_map

logger = logging.getLogger("repro.cluster")


@dataclass(frozen=True)
class Slice:
    """A rectangular sub-mesh allocation: ``width x height`` chips at an anchor."""

    job: str
    x0: int
    y0: int
    width: int
    height: int

    def __post_init__(self) -> None:
        if self.x0 < 0 or self.y0 < 0:
            raise ValueError("slice anchor must be non-negative")
        if self.width < 1 or self.height < 1:
            raise ValueError("slice dims must be >= 1")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.width, self.height)

    @property
    def num_chips(self) -> int:
        return self.width * self.height

    @property
    def devices(self) -> tuple[Device, ...]:
        """The slice's chips, x-major (the repo's canonical enumeration)."""
        return tuple(
            (x, y)
            for x in range(self.x0, self.x0 + self.width)
            for y in range(self.y0, self.y0 + self.height)
        )


class ClusterState:
    """Allocation/death/heal bookkeeping of one pod shared by many jobs."""

    def __init__(
        self, mesh_shape: tuple[int, int], chips_per_host: int = 8
    ) -> None:
        x_size, y_size = mesh_shape
        if x_size < 1 or y_size < 1:
            raise ValueError("mesh dims must be >= 1")
        self.mesh_shape = (x_size, y_size)
        self.chips_per_host = chips_per_host
        #: Host index -> chips, by the repo-wide row-major block rule.
        self.hosts = host_map(mesh_shape, chips_per_host)
        self._host_of: dict[Device, int] = {
            chip: h for h, chips in self.hosts.items() for chip in chips
        }
        self._owner: dict[Device, str | None] = {
            (x, y): None for x in range(x_size) for y in range(y_size)
        }
        #: Dead chip -> the time it died (drives heal eligibility).
        self._dead: dict[Device, float] = {}
        self._slices: dict[str, Slice] = {}

    # --- read side -----------------------------------------------------------

    @property
    def total_chips(self) -> int:
        return self.mesh_shape[0] * self.mesh_shape[1]

    @property
    def dead_chips(self) -> int:
        return len(self._dead)

    @property
    def free_chips(self) -> int:
        """Chips that are allocatable right now (unowned and alive)."""
        return sum(
            1
            for dev, owner in self._owner.items()
            if owner is None and dev not in self._dead
        )

    def slice_of(self, job: str) -> Slice | None:
        return self._slices.get(job)

    def hosts_of(self, job: str) -> tuple[int, ...]:
        """The hosts driving at least one chip of ``job``'s slice."""
        slc = self._slices[job]
        return tuple(sorted({self._host_of[d] for d in slc.devices}))

    def is_dead(self, device: Device) -> bool:
        return device in self._dead

    def alive_in(self, job: str) -> tuple[Device, ...]:
        """The currently usable chips of ``job``'s slice, x-major."""
        slc = self._slices[job]
        return tuple(d for d in slc.devices if d not in self._dead)

    # --- allocation ----------------------------------------------------------

    def _fits(
        self,
        x0: int,
        y0: int,
        width: int,
        height: int,
        extra_free: frozenset[str] = frozenset(),
    ) -> bool:
        for x in range(x0, x0 + width):
            for y in range(y0, y0 + height):
                if (x, y) in self._dead:
                    return False
                owner = self._owner[(x, y)]
                if owner is not None and owner not in extra_free:
                    return False
        return True

    def find_anchor(
        self,
        shape: tuple[int, int],
        evictable: frozenset[str] = frozenset(),
    ) -> tuple[int, int, int, int] | None:
        """First-fit anchor for a ``shape`` rectangle, or ``None``.

        Scans anchors row-major (x-major, matching chip enumeration), the
        requested orientation first and the rotated one second.
        ``evictable`` names jobs whose chips may be counted as free — the
        hypothetical-eviction check the preemption planner uses before
        actually evicting anyone.
        """
        x_size, y_size = self.mesh_shape
        w, h = shape
        orientations = [(w, h)] if w == h else [(w, h), (h, w)]
        for ow, oh in orientations:
            if ow > x_size or oh > y_size:
                continue
            for x0 in range(x_size - ow + 1):
                for y0 in range(y_size - oh + 1):
                    if self._fits(x0, y0, ow, oh, evictable):
                        return (x0, y0, ow, oh)
        return None

    def allocate(self, job: str, shape: tuple[int, int]) -> Slice | None:
        """Carve a rectangular slice for ``job``; ``None`` if nothing fits."""
        if job in self._slices:
            raise ValueError(f"job {job!r} already holds a slice")
        anchor = self.find_anchor(shape)
        if anchor is None:
            return None
        x0, y0, w, h = anchor
        slc = Slice(job=job, x0=x0, y0=y0, width=w, height=h)
        for dev in slc.devices:
            self._owner[dev] = job
        self._slices[job] = slc
        logger.debug("allocated %dx%d at (%d,%d) to %s", w, h, x0, y0, job)
        return slc

    def release(self, job: str) -> Slice | None:
        """Free ``job``'s slice (dead chips inside it stay dead)."""
        slc = self._slices.pop(job, None)
        if slc is None:
            return None
        for dev in slc.devices:
            self._owner[dev] = None
        return slc

    # --- faults and healing --------------------------------------------------

    def fail_chip(self, device: Device, now_s: float) -> str | None:
        """Mark one chip dead; returns the owning job (``None`` if free)."""
        if device not in self._owner:
            raise ValueError(f"device {device} not on the pod")
        if device not in self._dead:
            self._dead[device] = now_s
        return self._owner[device]

    def heal_ready(self, now_s: float, heal_after_s: float) -> tuple[Device, ...]:
        """Dead chips whose repair window has elapsed by ``now_s``."""
        return tuple(
            sorted(
                dev
                for dev, since in self._dead.items()
                if now_s - since >= heal_after_s
            )
        )

    def heal_chip(self, device: Device) -> str | None:
        """Return a repaired chip to service; returns the owning job."""
        self._dead.pop(device, None)
        return self._owner[device]
