"""Link-level discrete-event execution of ring collective schedules.

These simulations move actual chunk-sized transfers over per-link channels
with FIFO contention, and exist to *validate* the closed-form alpha-beta
costs in :mod:`repro.comm.cost`: tests assert that the event-driven time of
a schedule matches the formula (exactly for single rings, within a small
tolerance for contended peer rings).

The schedules mirror XLA's synchronous collective-permute steps: a ring
reduce-scatter runs ``n - 1`` steps, each step every member forwards one
chunk to its ring neighbor, with a barrier between steps.

A healthy phase simulates one ring direction per *symmetry class*: ring
directions that share a directed link form one component, and components
with the same shape (ring sizes, payloads, and per hop the link's latency,
bandwidth and which of the component's links it is) replay the same float
sequence, so one representative per shape gives the phase's exact time.
That is what lets the 4096-chip Multipod's 2-D all-reduce run here: its
128 Y-ring columns and 32 X-line rows are one class each.  Fault-injected
phases look every link up in the plan and keep the full simulation.
"""

from __future__ import annotations

import logging
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from math import inf
from time import perf_counter as _perf

from repro import telemetry as _telemetry
from repro.hardware.rings import Ring, degraded_rings

logger = logging.getLogger("repro.comm")
from repro.hardware.topology import Coordinate, TorusMesh
from repro.resilience.faults import FaultPlan, LinkDownError, RetryPolicy
from repro.sim.engine import Simulator
from repro.sim.resources import Channel


def _hops(sim: Simulator, mesh: TorusMesh, channels, segment):
    """``(link, channel)`` for each link of a segment.

    ``channels`` holds one FIFO channel per directed physical link, shared by
    every ring of the run and made when the first segment crosses the link.
    Its keys, ``(link.src, link.dst)``, are also what
    :func:`_symmetry_classes` joins ring directions on, so a link two
    simulated directions cross is one channel and one queue.
    """
    hops = []
    for link in segment:
        key = (link.src, link.dst)
        channel = channels.get(key)
        if channel is None:
            channel = channels[key] = Channel(
                sim,
                bandwidth=mesh.link_bandwidth,
                latency=mesh.link_latency(link),
                name=f"{link.src}->{link.dst}",
            )
        hops.append((link, channel))
    return hops


def _forward_chunk(hops, chunk_bytes: float):
    """Store-and-forward a chunk over the links of a hop-over segment."""
    for _, channel in hops:
        yield from channel.transfer(chunk_bytes)


def _chunk_sender(sim: Simulator, hops):
    """The healthy leaf: no fault lookup per link.

    On a one-link segment the link's own completion event is the chunk's
    arrival; only a segment that hops over chips (a model-peer ring) needs a
    process to walk its links.
    """
    if len(hops) == 1:
        return hops[0][1].send
    return lambda chunk_bytes: sim.process(_forward_chunk(hops, chunk_bytes))


@lru_cache(maxsize=512)
def _ring_segments(
    mesh: TorusMesh, ring: Ring, reverse: bool
) -> tuple[tuple, ...]:
    """Link segments of one ring direction, cached.

    ``TorusMesh`` and ``Ring`` are frozen/hashable, and sweeps replay the
    same (mesh, ring) pairs for every payload point — recomputing the
    per-member link paths dominated small-payload simulations.
    """
    segments = ring.segments(mesh)
    if reverse:
        # Reverse direction: send along each segment's links flipped.
        segments = [
            [mesh.link_between(l.dst, l.src) for l in reversed(seg)]
            for seg in segments
        ]
    return tuple(tuple(seg) for seg in segments)


def _ring_phase(sim: Simulator, channels, mesh: TorusMesh, ring: Ring,
                payload_bytes: float, reverse: bool, sender):
    """One direction of a ring phase: n-1 synchronous chunk-forward steps.

    ``sender(sim, hops)`` is asked once per segment for the function that
    starts a chunk of so many bytes over it and returns the event of its
    arrival: :func:`_chunk_sender`, or the fault-aware leaf bound to a plan.
    """
    n = ring.size
    steps = n - 1
    chunk = payload_bytes / n
    sends = [
        sender(sim, _hops(sim, mesh, channels, seg))
        for seg in _ring_segments(mesh, ring, reverse)
    ]
    for _ in range(steps):
        yield sim.all_of([send(chunk) for send in sends])


def _check_payload(payload_bytes: float) -> None:
    # NaN fails both comparisons: it would come back as a NaN time and, in
    # the phase memo, as a key no later call can hit (nan != nan).
    if not 0 <= payload_bytes < inf:
        raise ValueError(
            f"payload_bytes must be finite and non-negative, got {payload_bytes}"
        )


def _directions(
    rings: list[Ring], payload_bytes: float, bidirectional: bool
) -> list[tuple[Ring, float, bool]]:
    """``(ring, payload, reverse)`` per ring direction, in process order.

    ``bidirectional`` sends half the payload each way round a closed ring;
    an open line always runs the one-directional pipeline.  A ring of one
    chip has nothing to send.
    """
    directions = []
    for ring in rings:
        if ring.size < 2:
            continue
        if bidirectional and ring.closed:
            half = payload_bytes / 2
            directions += ((ring, half, False), (ring, half, True))
        else:
            directions.append((ring, payload_bytes, False))
    return directions


def _count_classes(phase: str, classes: int, directions: int) -> None:
    """``sim_phase_classes``: symmetry classes simulated for the phase (the
    full simulation counts each ring direction as one); ``sim_phase_rings``:
    the ring directions they stand for."""
    if _telemetry.enabled:
        m = _telemetry.metrics
        m.counter("sim_phase_classes", phase=phase).inc(classes)
        m.counter("sim_phase_rings", phase=phase).inc(directions)


def _run_directions(
    phase: str, mesh: TorusMesh, directions, sender, sim: Simulator
) -> float:
    """Run each direction's schedule over ``sim``, one channel per link.

    Each direction is a process named after the phase and the ring's first
    member, so a failure surfacing from ``run()`` says which ring died.
    """
    channels: dict[tuple[Coordinate, Coordinate], Channel] = {}
    for ring, payload, reverse in directions:
        sim.process(
            _ring_phase(sim, channels, mesh, ring, payload, reverse, sender),
            name=f"{phase}[{ring.members[0]}]",
        )
    return sim.run()


def _run_rings(
    phase: str, mesh: TorusMesh, rings: list[Ring], payload_bytes: float,
    bidirectional: bool, sender, sim: Simulator,
) -> float:
    """The full simulation: every ring direction of the phase is a process.

    The fault-injected phase runs here, since its sender looks every link up
    in the plan and equal shapes no longer mean equal times; it is also the
    oracle :func:`_symmetry_classes` is tested against.
    """
    directions = _directions(rings, payload_bytes, bidirectional)
    _count_classes(phase, len(directions), len(directions))
    return _run_directions(phase, mesh, directions, sender, sim)


def _symmetry_classes(mesh: TorusMesh, directions) -> tuple[list, int]:
    """The directions to simulate for the healthy phase, and how many classes.

    Directions that cross a common directed link join one component
    (union-find on the ``(src, dst)`` keys :func:`_hops` makes channels
    for).  A component's shape is, per direction in process order, the ring
    size, the payload and per segment the hops as (index of the link among
    the component's links by first crossing, latency, bandwidth).  The
    first component of each shape is kept, in process order.

    Why the kept ones give the phase's exact time: a direction's events take
    their times only from its own chain -- a send reserves ``start +
    duration`` on its links, a barrier fires at the time of its last send --
    so components that share no link cannot move each other's floats, and
    two of one shape make the same float sequence.  Their heap entries
    interleave, but within a component the order is the one it would have
    alone.  ``run()`` returns the last event's time: the slowest class's.
    """
    segments = [_ring_segments(mesh, ring, reverse) for ring, _, reverse in directions]
    parent = list(range(len(directions)))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    first_on_link: dict[tuple[Coordinate, Coordinate], int] = {}
    for i, segs in enumerate(segments):
        for seg in segs:
            for link in seg:
                j = first_on_link.setdefault((link.src, link.dst), i)
                if j != i:
                    parent[root(i)] = root(j)

    components: dict[int, list[int]] = {}
    for i in range(len(directions)):
        components.setdefault(root(i), []).append(i)
    bandwidth = mesh.link_bandwidth
    shapes: dict[tuple, list[int]] = {}
    for members in components.values():
        link_ids: dict[tuple[Coordinate, Coordinate], int] = {}
        shape = tuple(
            (
                directions[i][0].size,
                directions[i][1],
                tuple(
                    tuple(
                        (
                            link_ids.setdefault((link.src, link.dst), len(link_ids)),
                            mesh.link_latency(link),
                            bandwidth,
                        )
                        for link in seg
                    )
                    for seg in segments[i]
                ),
            )
            for i in members
        )
        shapes.setdefault(shape, members)
    kept = sorted(i for members in shapes.values() for i in members)
    return [directions[i] for i in kept], len(shapes)


#: Memoized healthy-phase results keyed by (topology, rings, payload,
#: direction).  The DES is deterministic, so a repeated (mesh, schedule,
#: payload) point — payload sweeps, trainer steps re-modeling the same
#: collective — returns its virtual time without re-running the event loop.
#: Bounded LRU; degraded/fault-injected phases are never memoized (their
#: outcome depends on the mutable FaultPlan/RetryPolicy state).
_PHASE_CACHE: OrderedDict[tuple, float] = OrderedDict()
_PHASE_CACHE_MAXSIZE = 1024
_PHASE_CACHE_MISS = object()


def _simulate_phase(
    phase: str,
    mesh: TorusMesh,
    rings: list[Ring],
    payload_bytes: float,
    bidirectional: bool,
    sim: Simulator | None = None,
) -> float:
    """Memoized healthy phase; a miss simulates one ring direction per
    symmetry class on ``sim`` (default: a new one)."""
    _check_payload(payload_bytes)
    key = (mesh, tuple(rings), float(payload_bytes), bidirectional)
    cached = _PHASE_CACHE.get(key, _PHASE_CACHE_MISS)
    if cached is not _PHASE_CACHE_MISS:
        try:
            _PHASE_CACHE.move_to_end(key)
        except KeyError:
            # Another thread's miss evicted the key since the get(); the
            # value read is still this key's (the DES is deterministic).
            pass
        if _telemetry.enabled:
            _telemetry.metrics.counter("sim_phase_cache_hits").inc()
        return cached  # type: ignore[return-value]
    if _telemetry.enabled:
        _telemetry.metrics.counter("sim_phase_cache_misses").inc()
    directions = _directions(rings, payload_bytes, bidirectional)
    kept, classes = _symmetry_classes(mesh, directions)
    _count_classes(phase, classes, len(directions))
    result = _run_directions(
        phase, mesh, kept, _chunk_sender, sim if sim is not None else Simulator()
    )
    while len(_PHASE_CACHE) >= _PHASE_CACHE_MAXSIZE:
        _PHASE_CACHE.popitem(last=False)
    _PHASE_CACHE[key] = result
    return result


def simulate_ring_reduce_scatter(
    mesh: TorusMesh,
    rings: list[Ring] | Ring,
    payload_bytes: float,
    *,
    bidirectional: bool = True,
) -> float:
    """Event-driven completion time of a (set of) ring reduce-scatter(s).

    Multiple rings run concurrently and contend for shared physical links —
    pass all ``mp_size`` model-peer rings of a row to observe the bandwidth
    sharing that the analytic model charges as ``bandwidth_fraction``.

    ``bidirectional`` applies the two-half-payloads trick on closed rings;
    open lines always run the one-directional pipeline.
    """
    if isinstance(rings, Ring):
        rings = [rings]
    return _attributed_phase(
        "reduce_scatter", _simulate_phase, mesh, rings, payload_bytes, bidirectional
    )


def _attributed_phase(phase: str, simulate, *args) -> float:
    """Run ``simulate(phase, *args, sim)``, attributing modeled vs. measured
    seconds.

    ``sim_phase_modeled_seconds`` accumulates the discrete-event *answer*
    (virtual seconds the schedule would take on hardware) while
    ``sim_phase_wall_seconds`` accumulates the wall-clock cost of producing
    it — the simulated/measured split that lets a report show both phase
    attributions side by side.  ``sim_phase_events`` is that cost as a
    count: the heap events processed for the answer on the simulator handed
    to ``simulate`` as its last argument (none when the memo answered).
    """
    t0 = _perf()
    sim = Simulator()
    modeled = simulate(phase, *args, sim)
    if _telemetry.enabled:
        m = _telemetry.metrics
        m.counter("sim_phase_modeled_seconds", phase=phase).inc(modeled)
        m.counter("sim_phase_wall_seconds", phase=phase).inc(_perf() - t0)
        m.counter("sim_phase_runs", phase=phase).inc()
        if sim.events_processed:
            m.counter("sim_phase_events", phase=phase).inc(sim.events_processed)
    return modeled


def simulate_ring_all_gather(
    mesh: TorusMesh,
    rings: list[Ring] | Ring,
    payload_bytes: float,
    *,
    bidirectional: bool = True,
) -> float:
    """Event-driven all-gather time (identical data motion to reduce-scatter)."""
    if isinstance(rings, Ring):
        rings = [rings]
    return _attributed_phase(
        "all_gather", _simulate_phase, mesh, rings, payload_bytes, bidirectional
    )


# --- fault-aware schedules ----------------------------------------------------


@dataclass
class DegradedScheduleResult:
    """Outcome of one fault-aware ring phase.

    ``seconds`` is the modeled completion time including retry/backoff
    stalls; ``retries`` counts transfer attempts burned on down links;
    ``degraded_transfers`` counts transfers that ran at reduced bandwidth;
    ``dropped_rings`` counts rings with fewer than two survivors (their
    payload has no schedule and must be recovered at a higher layer).
    """

    seconds: float = 0.0
    retries: int = 0
    degraded_transfers: int = 0
    healed_rings: int = 0
    dropped_rings: int = 0
    dead_chips: tuple = ()


def _send_chunk_with_faults(
    sim: Simulator,
    hops,
    chunk_bytes: float,
    plan: FaultPlan,
    policy: RetryPolicy,
    result: DegradedScheduleResult,
):
    """Store-and-forward one chunk, retrying links the plan has taken down.

    A transfer attempt on a down link burns the sender's detection timeout
    and an exponential backoff before the next attempt; exhausting
    ``policy.max_attempts`` raises :class:`LinkDownError` into the schedule
    (failing the whole collective, as a synchronous fleet would observe).
    """
    for link, channel in hops:
        attempt = 0
        while True:
            factor = plan.link_factor(link.src, link.dst, sim.now)
            if factor > 0.0:
                if factor < 1.0:
                    result.degraded_transfers += 1
                    if _telemetry.enabled:
                        _telemetry.metrics.counter(
                            "resilience_degraded_transfers"
                        ).inc()
                yield from channel.transfer(chunk_bytes, factor=factor)
                break
            attempt += 1
            result.retries += 1
            if _telemetry.enabled:
                _telemetry.metrics.counter("resilience_retries").inc()
            if attempt >= policy.max_attempts:
                raise LinkDownError(tuple(link.src), tuple(link.dst), attempt)
            yield sim.timeout(policy.delay_after(attempt))


def _simulate_degraded_phase(
    phase: str,
    mesh: TorusMesh,
    rings: list[Ring] | Ring,
    payload_bytes: float,
    plan: FaultPlan,
    policy: RetryPolicy | None,
    bidirectional: bool,
) -> DegradedScheduleResult:
    _check_payload(payload_bytes)
    if isinstance(rings, Ring):
        rings = [rings]
    policy = policy if policy is not None else RetryPolicy()
    dead = plan.dead_at_time(0.0)
    healed = degraded_rings(rings, dead)
    result = DegradedScheduleResult(
        healed_rings=len(healed),
        dropped_rings=len(rings) - len(healed),
        dead_chips=tuple(sorted(dead)),
    )
    if result.dropped_rings:
        logger.warning(
            "%s: %d of %d rings dropped (fewer than 2 survivors)",
            phase, result.dropped_rings, len(rings),
        )

    def sender(sim: Simulator, hops):
        # Every link is looked up in the plan at the time the chunk reaches
        # it: one process per chunk, whatever the segment's length.
        return lambda chunk_bytes: sim.process(
            _send_chunk_with_faults(sim, hops, chunk_bytes, plan, policy, result)
        )

    result.seconds = _attributed_phase(
        phase, _run_rings, mesh, healed, payload_bytes, bidirectional, sender
    )
    return result


def simulate_degraded_reduce_scatter(
    mesh: TorusMesh,
    rings: list[Ring] | Ring,
    payload_bytes: float,
    plan: FaultPlan,
    *,
    policy: RetryPolicy | None = None,
    bidirectional: bool = True,
) -> DegradedScheduleResult:
    """Reduce-scatter completion time on a faulted mesh.

    Rings are first healed over the plan's dead chips (survivors hop over
    the holes, Figure 4 style); transfers then run against the plan's link
    faults — degraded links slow down, down links retry with backoff and
    ultimately raise :class:`LinkDownError` out of this call.
    """
    return _simulate_degraded_phase(
        "reduce_scatter_degraded", mesh, rings, payload_bytes, plan, policy,
        bidirectional,
    )


def simulate_degraded_all_gather(
    mesh: TorusMesh,
    rings: list[Ring] | Ring,
    payload_bytes: float,
    plan: FaultPlan,
    *,
    policy: RetryPolicy | None = None,
    bidirectional: bool = True,
) -> DegradedScheduleResult:
    """All-gather twin of :func:`simulate_degraded_reduce_scatter`."""
    return _simulate_degraded_phase(
        "all_gather_degraded", mesh, rings, payload_bytes, plan, policy,
        bidirectional,
    )
