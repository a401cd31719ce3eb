"""Deterministic fault model: seeded plans of chip, link, and straggler faults.

The paper's Multipod runs 4096 chips in lockstep, so a single preempted
host, flapped optical link, or straggler chip stalls every synchronous
collective.  This module provides the *plan* side of chaos engineering for
the reproduction: a :class:`FaultPlan` is an immutable, seed-deterministic
schedule of fault events that the failure-aware layers consume —

* the discrete-event collective schedules in :mod:`repro.comm.schedule`
  (link faults degrade bandwidth or hard-fail transfers, which retry with
  backoff and eventually raise :class:`LinkDownError`),
* the elastic training harness in :mod:`repro.resilience.chaos` (chip
  failures interrupt steps; checkpoints restore onto the surviving mesh),
* the cluster scheduler in :mod:`repro.cluster` (dead chips leave the
  pod's free map; jobs migrate or shrink).

The functional :class:`~repro.runtime.mesh.VirtualMesh` is not among them:
it is a fixed, healthy mesh, and device death is modelled by the layers
above.

Determinism is the point: the same seed replays the same churn, so chaos
tests pin exact goodput numbers and bit-identical recovery.

Devices are plain ``(x, y)`` tuples, compatible with
``repro.hardware.topology.Coordinate`` (a NamedTuple — tuple equality
holds across the two).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Container, Iterable, Sequence

import numpy as np

logger = logging.getLogger("repro.resilience")

#: A device address: ``(x, y)`` on the logical mesh.
Device = tuple[int, int]


class DeviceLostError(RuntimeError):
    """A fault plan killed every device a run could continue on."""

    def __init__(self, devices: Iterable[Device], message: str) -> None:
        self.devices: tuple[Device, ...] = tuple(sorted(devices))
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.devices, str(self)), self.__dict__


class LinkDownError(RuntimeError):
    """A link transfer exhausted its retry budget while the link was down."""

    def __init__(self, src: Device, dst: Device, attempts: int) -> None:
        self.src = src
        self.dst = dst
        self.attempts = attempts
        super().__init__(
            f"link {src}->{dst} still down after {attempts} attempt(s)"
        )

    def __reduce__(self):
        return type(self), (self.src, self.dst, self.attempts), self.__dict__


@dataclass(frozen=True)
class ChipFailure:
    """Permanent loss of one chip, at a training step and/or a sim time.

    ``at_step`` addresses the functional trainers (the failure interrupts
    that step's collective); ``at_time`` addresses the discrete-event
    schedules (simulated seconds).  Either may be ``None`` when the fault
    only targets one substrate.
    """

    device: Device
    at_step: int | None = None
    at_time: float | None = None

    def __post_init__(self) -> None:
        if self.at_step is None and self.at_time is None:
            raise ValueError("chip failure needs at_step and/or at_time")
        if self.at_step is not None and self.at_step < 0:
            raise ValueError("at_step must be >= 0")
        if self.at_time is not None and self.at_time < 0:
            raise ValueError("at_time must be >= 0")


@dataclass(frozen=True)
class LinkFault:
    """A window during which one physical link is degraded or down.

    ``factor`` scales the link bandwidth inside ``[start, start+duration)``:
    ``0.0`` is a hard outage (an optical-link flap — transfers time out and
    retry), values in ``(0, 1)`` model a degraded lane.  ``bidirectional``
    applies the fault to both link directions.
    """

    src: Device
    dst: Device
    start: float
    duration: float
    factor: float = 0.0
    bidirectional: bool = True

    def __post_init__(self) -> None:
        if self.start < 0 or self.duration <= 0:
            raise ValueError("link fault window must be non-negative/non-empty")
        if not 0.0 <= self.factor < 1.0:
            raise ValueError("factor must be in [0, 1) — 1.0 is a healthy link")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def applies(self, src: Device, dst: Device) -> bool:
        if (src, dst) == (self.src, self.dst):
            return True
        return self.bidirectional and (dst, src) == (self.src, self.dst)


@dataclass(frozen=True)
class StragglerFault:
    """One chip runs slow for a window of steps (inflates step wall time)."""

    device: Device
    start_step: int
    duration_steps: int
    slowdown: float

    def __post_init__(self) -> None:
        if self.start_step < 0 or self.duration_steps <= 0:
            raise ValueError("straggler window must be non-negative/non-empty")
        if self.slowdown < 1.0:
            raise ValueError("slowdown must be >= 1.0")

    def active_at(self, step: int) -> bool:
        return self.start_step <= step < self.start_step + self.duration_steps


@dataclass(frozen=True)
class PreemptionSignal:
    """An *announced* host eviction: SIGTERM now, SIGKILL after a grace window.

    Cloud preemption is the polite failure mode — unlike a chip death, the
    job is told in advance and has ``grace_s`` of wall-clock to flush a
    best-effort checkpoint before every chip the host drives goes away.
    ``host`` indexes the row-major host blocks of :func:`host_map`; the
    signal is delivered at the start of ``at_step``.
    """

    host: int
    at_step: int
    grace_s: float = 30.0

    def __post_init__(self) -> None:
        if self.host < 0:
            raise ValueError("host must be >= 0")
        if self.at_step < 0:
            raise ValueError("at_step must be >= 0")
        if self.grace_s < 0:
            raise ValueError("grace_s must be >= 0")


@dataclass(frozen=True)
class BitFlipFault:
    """A silent single-bit corruption of one replica's parameter copy.

    No collective raises on this: the flipped replica keeps participating,
    its parameter copy silently diverged from its peers — the SDC class of
    failure only a cross-replica consistency check can catch.  ``param``
    names the corrupted tensor (``None`` = first name in sorted order),
    ``index`` the flat element within it, and ``bit`` the bit within the
    element's 32-bit word (mantissa bits make quiet drift, exponent bits
    make loud blow-ups; both are silent to the collectives).

    The flip is *transient*: it corrupts the state once at ``at_step`` and
    is consumed — a rewind-and-replay recovery does not re-inject it.
    """

    device: Device
    at_step: int
    param: str | None = None
    index: int = 0
    bit: int = 12

    def __post_init__(self) -> None:
        if self.at_step < 0:
            raise ValueError("at_step must be >= 0")
        if self.index < 0:
            raise ValueError("index must be >= 0")
        if not 0 <= self.bit < 32:
            raise ValueError("bit must be in [0, 32)")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    One shared policy dataclass governs every retry loop in the repo:

    * the faulted link transfers in :mod:`repro.comm.schedule` — an
      attempt on a down link burns ``timeout_s`` (the sender's detection
      timeout), then waits ``backoff_s * backoff_factor**k`` before
      attempt ``k+1``; after ``max_attempts`` failed attempts the
      transfer raises :class:`LinkDownError` into the collective
      schedule;
    * the cluster admission loop in :mod:`repro.cluster.scheduler` — a
      job that cannot be placed retries on the same exponential schedule,
      decorrelated across tenants by a *deterministic* jitter term
      derived from ``(key, attempt)``.

    ``jitter_frac`` scales the jitter as a fraction of the backoff and
    defaults to ``0.0``, which keeps the link-retry path bit-identical to
    the historical hardcoded constants (``1e-3`` timeout, 4 attempts,
    ``2e-3`` base backoff, factor 2).  Jitter is *not* random: the same
    ``(key, attempt)`` always yields the same delay, so a seeded run
    replays exactly.
    """

    timeout_s: float = 1e-3
    max_attempts: int = 4
    backoff_s: float = 2e-3
    backoff_factor: float = 2.0
    jitter_frac: float = 0.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s < 0 or self.backoff_s < 0 or self.backoff_factor < 1:
            raise ValueError("negative timeout/backoff")
        if not 0.0 <= self.jitter_frac <= 1.0:
            raise ValueError("jitter_frac must be in [0, 1]")

    def backoff_after(self, attempt: int) -> float:
        """Seconds to wait after failed attempt number ``attempt`` (1-based)."""
        return self.backoff_s * self.backoff_factor ** (attempt - 1)

    def jitter_after(self, attempt: int, key: int = 0) -> float:
        """Deterministic jitter in ``[0, jitter_frac * backoff)`` for ``key``.

        The uniform draw comes from hashing ``(key, attempt)`` through
        ``numpy``'s :class:`~numpy.random.SeedSequence`, so two tenants
        (different keys) back off at decorrelated times while the same
        seeded run always replays the same delays.
        """
        if self.jitter_frac == 0.0:
            return 0.0
        word = np.random.SeedSequence(
            (int(key) & 0xFFFFFFFFFFFFFFFF, int(attempt))
        ).generate_state(1)[0]
        return self.backoff_after(attempt) * self.jitter_frac * (word / 2**32)

    def delay_after(self, attempt: int, key: int = 0) -> float:
        """Total stall charged after failed attempt ``attempt`` (1-based).

        ``timeout_s`` (detecting the failure) plus the exponential backoff
        plus the deterministic jitter.  With the default ``jitter_frac=0``
        this is exactly the historical ``timeout_s + backoff_after``.
        """
        return (
            self.timeout_s
            + self.backoff_after(attempt)
            + self.jitter_after(attempt, key)
        )


@dataclass(frozen=True)
class FaultPlan:
    """An immutable, seeded schedule of faults for one run.

    Construct explicitly for targeted chaos tests, or sample a random plan
    with :meth:`sample` — the same ``seed`` always yields the same plan, so
    failures reproduce exactly across runs and machines.
    """

    seed: int = 0
    chip_failures: tuple[ChipFailure, ...] = ()
    link_faults: tuple[LinkFault, ...] = ()
    stragglers: tuple[StragglerFault, ...] = ()
    preemptions: tuple[PreemptionSignal, ...] = ()
    bit_flips: tuple[BitFlipFault, ...] = ()

    # --- queries (trainer / step domain) -------------------------------------

    def chip_failures_at_step(self, step: int) -> tuple[Device, ...]:
        """Devices whose failure is injected while executing ``step``."""
        return tuple(
            f.device for f in self.chip_failures if f.at_step == step
        )

    def preemptions_at_step(self, step: int) -> tuple[PreemptionSignal, ...]:
        """Preemption signals delivered at the start of ``step``."""
        return tuple(p for p in self.preemptions if p.at_step == step)

    def bit_flips_at_step(self, step: int) -> tuple[BitFlipFault, ...]:
        """Silent bit flips injected while executing ``step``."""
        return tuple(f for f in self.bit_flips if f.at_step == step)

    def straggler_factor(self, device: Device, step: int) -> float:
        """Step-time multiplier for ``device`` at ``step`` (1.0 = healthy)."""
        factor = 1.0
        for s in self.stragglers:
            if s.device == device and s.active_at(step):
                factor = max(factor, s.slowdown)
        return factor

    def slowdown_at(self, step: int, devices: Container[Device]) -> float:
        """Step-time multiplier of a synchronous device set at ``step``.

        The set runs at the speed of its slowest chip: the largest
        ``slowdown`` among the stragglers active at ``step`` whose device is
        in ``devices``, 1.0 when there is none — the max of
        :meth:`straggler_factor` over the set, found from the plan's (few)
        stragglers instead of by visiting every device.
        """
        factor = 1.0
        for s in self.stragglers:
            if s.slowdown > factor and s.active_at(step) and s.device in devices:
                factor = s.slowdown
        return factor

    # --- queries (discrete-event / time domain) ------------------------------

    def dead_at_time(self, t: float) -> frozenset[Device]:
        """Devices dead at simulated time ``t``."""
        return frozenset(
            f.device
            for f in self.chip_failures
            if f.at_time is not None and f.at_time <= t
        )

    def link_factor(self, src: Device, dst: Device, t: float) -> float:
        """Bandwidth factor of the ``src -> dst`` link at time ``t``.

        1.0 when healthy; the *minimum* factor of all active fault windows
        otherwise (0.0 means the link is down).
        """
        factor = 1.0
        for f in self.link_faults:
            if f.applies(src, dst) and f.start <= t < f.end:
                factor = min(factor, f.factor)
        return factor

    # --- construction ---------------------------------------------------------

    @classmethod
    def sample(
        cls,
        seed: int,
        mesh_shape: tuple[int, int],
        steps: int,
        *,
        expected_chip_failures: float = 0.0,
        expected_link_flaps: float = 0.0,
        expected_stragglers: float = 0.0,
        expected_preemptions: float = 0.0,
        expected_bit_flips: float = 0.0,
        step_time_s: float = 1.0,
        flap_duration_s: float = 0.05,
        straggler_duration_steps: int = 3,
        straggler_slowdown: float = 3.0,
        chips_per_host: int = 8,
        preemption_grace_s: float = 30.0,
    ) -> "FaultPlan":
        """A random plan, fully determined by ``seed``.

        Event *counts* are Poisson with the given expectations; chip
        failures strike distinct devices at uniform steps (each also gets an
        ``at_time`` of ``at_step * step_time_s`` so the same plan drives the
        discrete-event schedules), link flaps strike uniform adjacent device
        pairs at uniform times, stragglers strike uniform devices/steps.
        """
        x_size, y_size = mesh_shape
        if x_size < 1 or y_size < 1:
            raise ValueError("mesh dims must be >= 1")
        if steps < 1:
            raise ValueError("steps must be >= 1")
        rng = np.random.default_rng(seed)
        devices = [(x, y) for x in range(x_size) for y in range(y_size)]
        horizon_s = steps * step_time_s

        n_chip = min(int(rng.poisson(expected_chip_failures)), len(devices))
        victims = rng.choice(len(devices), size=n_chip, replace=False)
        chip_failures = []
        for idx in victims:
            at_step = int(rng.integers(0, steps))
            chip_failures.append(
                ChipFailure(
                    device=devices[int(idx)],
                    at_step=at_step,
                    at_time=at_step * step_time_s,
                )
            )

        link_faults = []
        links = _adjacent_pairs(x_size, y_size)
        if links:
            for _ in range(int(rng.poisson(expected_link_flaps))):
                src, dst = links[int(rng.integers(0, len(links)))]
                start = float(rng.uniform(0.0, horizon_s))
                link_faults.append(
                    LinkFault(src=src, dst=dst, start=start,
                              duration=flap_duration_s, factor=0.0)
                )

        stragglers = []
        for _ in range(int(rng.poisson(expected_stragglers))):
            device = devices[int(rng.integers(0, len(devices)))]
            start_step = int(rng.integers(0, steps))
            stragglers.append(
                StragglerFault(
                    device=device,
                    start_step=start_step,
                    duration_steps=straggler_duration_steps,
                    slowdown=straggler_slowdown,
                )
            )

        hosts = host_map(mesh_shape, chips_per_host)
        preemptions = []
        for _ in range(int(rng.poisson(expected_preemptions))):
            preemptions.append(
                PreemptionSignal(
                    host=int(rng.integers(0, len(hosts))),
                    at_step=int(rng.integers(0, steps)),
                    grace_s=preemption_grace_s,
                )
            )

        bit_flips = []
        for _ in range(int(rng.poisson(expected_bit_flips))):
            bit_flips.append(
                BitFlipFault(
                    device=devices[int(rng.integers(0, len(devices)))],
                    at_step=int(rng.integers(0, steps)),
                    index=int(rng.integers(0, 4)),
                    bit=int(rng.integers(0, 23)),  # mantissa bits: quiet drift
                )
            )

        plan = cls(
            seed=seed,
            chip_failures=tuple(
                sorted(chip_failures, key=lambda f: (f.at_step, f.device))
            ),
            link_faults=tuple(sorted(link_faults, key=lambda f: f.start)),
            stragglers=tuple(
                sorted(stragglers, key=lambda s: (s.start_step, s.device))
            ),
            preemptions=tuple(
                sorted(preemptions, key=lambda p: (p.at_step, p.host))
            ),
            bit_flips=tuple(
                sorted(bit_flips, key=lambda f: (f.at_step, f.device))
            ),
        )
        logger.debug(
            "sampled fault plan seed=%d: %d chip failures, %d link faults, "
            "%d stragglers, %d preemptions, %d bit flips over %d steps on %dx%d",
            seed, len(plan.chip_failures), len(plan.link_faults),
            len(plan.stragglers), len(plan.preemptions), len(plan.bit_flips),
            steps, x_size, y_size,
        )
        return plan

    @property
    def num_events(self) -> int:
        return (
            len(self.chip_failures)
            + len(self.link_faults)
            + len(self.stragglers)
            + len(self.preemptions)
            + len(self.bit_flips)
        )


def host_map(
    topology, chips_per_host: int | None = None
) -> dict[int, tuple[Device, ...]]:
    """Host index -> the chips that host drives, as row-major blocks.

    This is the *single* host->chip mapping rule of the repo, shared by
    :func:`fail_host` and :class:`repro.controlplane.HostGroup`, and it
    matches :meth:`repro.hardware.topology.TorusMesh.host_of` exactly:
    chips are enumerated x-major (``chip_id = x * y_size + y``) and
    assigned to hosts in consecutive blocks of ``chips_per_host``.

    ``topology`` is either an ``(x_size, y_size)`` shape tuple or any
    object exposing ``x_size``/``y_size`` (a ``TorusMesh``).
    ``chips_per_host`` defaults to the topology's own
    ``host.chips_per_host`` when it has one, else 8 (TPU-v3).
    """
    if isinstance(topology, tuple):
        x_size, y_size = topology
    else:
        x_size, y_size = topology.x_size, topology.y_size
    if x_size < 1 or y_size < 1:
        raise ValueError("mesh dims must be >= 1")
    if chips_per_host is None:
        host_spec = getattr(topology, "host", None)
        chips_per_host = getattr(host_spec, "chips_per_host", 8)
    if chips_per_host < 1:
        raise ValueError("chips_per_host must be >= 1")
    hosts: dict[int, list[Device]] = {}
    for x in range(x_size):
        for y in range(y_size):
            chip_id = x * y_size + y
            hosts.setdefault(chip_id // chips_per_host, []).append((x, y))
    return {h: tuple(chips) for h, chips in hosts.items()}


def host_failure(
    devices: Sequence[Device], at_step: int | None = None,
    at_time: float | None = None,
) -> tuple[ChipFailure, ...]:
    """Chip failures for every chip of one host, dying together.

    Pass one block of :func:`host_map` (or any explicit chip set); a
    preempted VM takes all of them out at once.  :func:`fail_host` wraps
    the lookup for the common case.
    """
    if not devices:
        raise ValueError("host failure needs at least one device")
    return tuple(
        ChipFailure(device=tuple(d), at_step=at_step, at_time=at_time)
        for d in devices
    )


def fail_host(
    topology,
    host: int,
    *,
    chips_per_host: int | None = None,
    at_step: int | None = None,
    at_time: float | None = None,
) -> tuple[ChipFailure, ...]:
    """Chip failures for host ``host`` of ``topology``, via :func:`host_map`."""
    hosts = host_map(topology, chips_per_host)
    if host not in hosts:
        raise ValueError(f"host {host} not in topology ({len(hosts)} hosts)")
    return host_failure(hosts[host], at_step=at_step, at_time=at_time)


def _adjacent_pairs(x_size: int, y_size: int) -> list[tuple[Device, Device]]:
    """Directed +x / +y neighbor pairs of a grid (the physical ICI links)."""
    pairs: list[tuple[Device, Device]] = []
    for x in range(x_size):
        for y in range(y_size):
            if x + 1 < x_size:
                pairs.append(((x, y), (x + 1, y)))
            if y + 1 < y_size:
                pairs.append(((x, y), (x, y + 1)))
    return pairs
