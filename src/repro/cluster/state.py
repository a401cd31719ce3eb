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

Everything is deterministic: allocation takes the first anchor in
row-major order (first fit, trying the rotated shape second), so the same
request stream always produces the same packing.  First fit is answered
from one bitmask per column (bit ``y`` of column ``x`` is chip ``(x, y)``),
so its cost follows the pod's width, not its chip count.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def devices(self) -> tuple[Device, ...]:
        """The slice's chips, x-major (the repo's canonical enumeration)."""
        return tuple(
            (x, y)
            for x in range(self.x0, self.x0 + self.width)
            for y in range(self.y0, self.y0 + self.height)
        )

    @property
    def columns(self) -> range:
        return range(self.x0, self.x0 + self.width)

    @property
    def row_mask(self) -> int:
        """The slice's rows as one column bitmask."""
        return ((1 << self.height) - 1) << self.y0


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
        #: Per column x: bit y set when chip (x, y) is in a slice / dead.
        #: Written by allocate / release / fail_chip / heal_chip only.
        self._owned = [0] * x_size
        self._dead_cols = [0] * x_size
        #: Dead chip -> the time it died (drives heal eligibility).
        self._dead: dict[Device, float] = {}
        self._slices: dict[str, Slice] = {}
        #: Job -> its live chips; dropped when its slice or a chip in it changes.
        self._alive: dict[str, tuple[Device, ...]] = {}

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
        return self.total_chips - sum(
            (owned | dead).bit_count()
            for owned, dead in zip(self._owned, self._dead_cols)
        )

    def has_chip(self, device: Device) -> bool:
        """Whether ``device`` is an ``(x, y)`` on this pod."""
        x, y = device
        return 0 <= x < self.mesh_shape[0] and 0 <= y < self.mesh_shape[1]

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
        alive = self._alive.get(job)
        if alive is None:
            slc = self._slices[job]
            alive = self._alive[job] = tuple(
                d for d in slc.devices if d not in self._dead
            )
        return alive

    def _owner(self, device: Device) -> str | None:
        return next(
            (job for job, slc in self._slices.items() if device in slc.devices),
            None,
        )

    # --- allocation ----------------------------------------------------------

    def find_anchor(
        self,
        shape: tuple[int, int],
        evictable: frozenset[str] = frozenset(),
    ) -> tuple[int, int, int, int] | None:
        """First-fit anchor for a ``shape`` rectangle, or ``None``.

        The first anchor in row-major order (x-major, matching chip
        enumeration), the requested orientation first and the rotated one
        second.  ``evictable`` names jobs whose chips may be counted as
        free — the hypothetical-eviction check the preemption planner uses
        before actually evicting anyone; dead chips inside their slices
        still block.

        A ``w x h`` rectangle fits at ``(x0, y0)`` when bits ``y0 .. y0+h-1``
        are free in columns ``x0 .. x0+w-1``: AND the ``w`` columns' free
        masks, then AND the result with itself shifted down by ``1 .. h-1``.
        A set bit ``y0`` survives exactly where the rectangle fits, so the
        lowest set bit of the first ``x0`` that has one is the anchor a
        row-major scan would find first.
        """
        x_size, y_size = self.mesh_shape
        owned = self._owned
        if evictable:
            owned = owned.copy()
            for job in evictable:
                slc = self._slices.get(job)
                if slc is not None:
                    for x in slc.columns:
                        owned[x] &= ~slc.row_mask
        full = (1 << y_size) - 1
        free = [
            full & ~(taken | dead) for taken, dead in zip(owned, self._dead_cols)
        ]
        w, h = shape
        orientations = [(w, h)] if w == h else [(w, h), (h, w)]
        for ow, oh in orientations:
            if ow > x_size or oh > y_size:
                continue
            for x0 in range(x_size - ow + 1):
                across = full  # rows free in every one of the ow columns
                for rows in free[x0:x0 + ow]:
                    across &= rows
                fits = across
                for shift in range(1, oh):
                    fits &= across >> shift
                if fits:
                    return (x0, (fits & -fits).bit_length() - 1, ow, oh)
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
        rows = slc.row_mask
        for x in slc.columns:
            self._owned[x] |= rows
        self._slices[job] = slc
        logger.debug("allocated %dx%d at (%d,%d) to %s", w, h, x0, y0, job)
        return slc

    def release(self, job: str) -> Slice | None:
        """Free ``job``'s slice (dead chips inside it stay dead)."""
        slc = self._slices.pop(job, None)
        if slc is None:
            return None
        rows = slc.row_mask
        for x in slc.columns:
            self._owned[x] &= ~rows
        self._alive.pop(job, None)
        return slc

    # --- faults and healing --------------------------------------------------

    def _check_on_pod(self, device: Device) -> None:
        if not self.has_chip(device):
            raise ValueError(f"device {device} not on the pod")

    def fail_chip(self, device: Device, now_s: float) -> str | None:
        """Mark one chip dead; returns the owning job (``None`` if free)."""
        self._check_on_pod(device)
        owner = self._owner(device)
        if device not in self._dead:
            self._dead[device] = now_s
            x, y = device
            self._dead_cols[x] |= 1 << y
            self._alive.pop(owner, None)
        return owner

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
        self._check_on_pod(device)
        owner = self._owner(device)
        if self._dead.pop(device, None) is not None:
            x, y = device
            self._dead_cols[x] &= ~(1 << y)
            self._alive.pop(owner, None)
        return owner
