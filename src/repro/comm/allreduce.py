"""Multipod gradient-summation schedules (Section 3.3, Figure 4).

The paper's optimized global summation is a 2-D hierarchical schedule:

1. bidirectional ring **reduce-scatter along Y** (the torus dimension),
   leaving each chip ``1/y_size`` of the summed gradients;
2. **reduce-scatter along X** on that shard (payload already 32x smaller);
3. the (sharded) **weight update** — costed by the caller, see
   :mod:`repro.core.weight_update_sharding`;
4. **all-gather along X** then **along Y** to broadcast updated weights.

With ``m``-way model parallelism along X, step 2/4 run on the *peer rings*
that hop over model-parallel neighbors, sharing X links (Figure 4, dotted
blue), while the per-chip gradient payload is already ``1/m`` of the model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.cost import (
    RingCostParams,
    all_gather_time,
    reduce_scatter_time,
    ring_all_reduce_time,
    ring_cost_for,
)
from repro.hardware.rings import model_peer_ring, x_line, y_ring
from repro.hardware.topology import TorusMesh


@dataclass(frozen=True)
class AllReduceBreakdown:
    """Timing breakdown of a hierarchical all-reduce.

    ``shard_bytes`` is the per-chip gradient shard available between the
    reduce-scatter and all-gather phases — the input of the sharded weight
    update (Section 3.2).
    """

    reduce_scatter_y: float
    reduce_scatter_x: float
    all_gather_x: float
    all_gather_y: float
    shard_bytes: float

    @property
    def reduce_time(self) -> float:
        return self.reduce_scatter_y + self.reduce_scatter_x

    @property
    def broadcast_time(self) -> float:
        return self.all_gather_x + self.all_gather_y

    @property
    def total(self) -> float:
        return self.reduce_time + self.broadcast_time


#: ``(Y ring, X line or peer ring)`` cost parameters by mesh geometry and
#: model-parallel width.  :func:`ring_cost_for` walks every link of every
#: segment looking for a cross-pod hop (0.5 ms on the 128-wide multipod
#: line), and a step-time query asks for the same two rings every time.
#: Keyed by value, since equal slices are rebuilt per query; emptied when
#: full, which needs no ordering to keep consistent between threads.
_PHASE_PARAMS: dict[tuple, tuple[RingCostParams | None, RingCostParams | None]] = {}
_PHASE_PARAMS_MAXSIZE = 256


def _phase_params(
    mesh: TorusMesh, mp_size: int
) -> tuple[RingCostParams | None, RingCostParams | None]:
    """Ring parameters of the two phases; ``None`` for a phase with no ring."""
    key = (
        mesh.x_size, mesh.y_size, mesh.wrap_x, mesh.wrap_y,
        mesh.cross_pod_every, mesh.chip, mp_size,
    )
    params = _PHASE_PARAMS.get(key)
    if params is None:
        yc = ring_cost_for(mesh, y_ring(mesh, 0)) if mesh.y_size > 1 else None
        if mesh.x_size // mp_size < 2:
            xc = None
        elif mp_size == 1:
            xc = ring_cost_for(mesh, x_line(mesh, 0))
        else:
            xc = ring_cost_for(mesh, model_peer_ring(mesh, 0, mp_size, 0))
        if len(_PHASE_PARAMS) >= _PHASE_PARAMS_MAXSIZE:
            _PHASE_PARAMS.clear()
        _PHASE_PARAMS[key] = params = (yc, xc)
    return params


def two_phase_allreduce(
    mesh: TorusMesh,
    payload_bytes: float,
    *,
    mp_size: int = 1,
) -> AllReduceBreakdown:
    """Cost of the 2-D hierarchical gradient all-reduce on a mesh.

    Parameters
    ----------
    mesh:
        The chip slice.
    payload_bytes:
        Per-chip gradient bytes.  With model parallelism this is already the
        *sharded* gradient size (full model gradients / ``mp_size``).
    mp_size:
        Model-parallelism group size along X.  ``1`` is plain data
        parallelism.  With ``mp_size > 1`` the X phases run on peer rings
        with ``mp_size`` physical hops per step and ``1/mp_size`` of each
        link's bandwidth (all peer rings share the X links).
    """
    if payload_bytes < 0:
        raise ValueError("payload_bytes must be non-negative")
    if mp_size < 1:
        raise ValueError("mp_size must be >= 1")
    if mesh.x_size % mp_size != 0:
        raise ValueError(
            f"mesh x_size {mesh.x_size} not divisible by mp_size {mp_size}"
        )

    yc, xc = _phase_params(mesh, mp_size)

    # Phase Y: every chip participates in its column ring with the full
    # (per-chip) payload.
    if yc is not None:
        t_rs_y = reduce_scatter_time(
            yc.num_members, payload_bytes, yc.bandwidth, yc.latency, closed=yc.closed
        )
        t_ag_y = all_gather_time(
            yc.num_members, payload_bytes, yc.bandwidth, yc.latency, closed=yc.closed
        )
        after_y = payload_bytes / mesh.y_size
    else:
        t_rs_y = t_ag_y = 0.0
        after_y = payload_bytes

    # Phase X: replicas along X (hopping over model-parallel peers).
    x_replicas = mesh.x_size // mp_size
    if xc is not None:
        frac = 1.0 if mp_size == 1 else 1.0 / mp_size
        t_rs_x = reduce_scatter_time(
            xc.num_members,
            after_y,
            xc.bandwidth,
            xc.latency,
            closed=xc.closed,
            hop_links=xc.hop_links,
            bandwidth_fraction=frac,
        )
        t_ag_x = all_gather_time(
            xc.num_members,
            after_y,
            xc.bandwidth,
            xc.latency,
            closed=xc.closed,
            hop_links=xc.hop_links,
            bandwidth_fraction=frac,
        )
        shard = after_y / x_replicas
    else:
        t_rs_x = t_ag_x = 0.0
        shard = after_y

    return AllReduceBreakdown(
        reduce_scatter_y=t_rs_y,
        reduce_scatter_x=t_rs_x,
        all_gather_x=t_ag_x,
        all_gather_y=t_ag_y,
        shard_bytes=shard,
    )


def flat_ring_allreduce(mesh: TorusMesh, payload_bytes: float) -> AllReduceBreakdown:
    """Baseline: one long snake ring over every chip of the slice.

    Used by the ablation benches to show why the 2-D schedule wins at scale:
    the single ring pays ``(n - 1)`` latency steps (4095 on the multipod)
    and cannot exploit the Y torus and X mesh dimensions concurrently.
    """
    n = mesh.num_chips
    # A hamiltonian snake alternates along columns; its closing hop exists
    # only if some wrap link can take it home, otherwise it is an open line.
    closed = mesh.wrap_y or mesh.wrap_x
    latency = mesh.chip.link_latency
    if mesh.cross_pod_every is not None:
        latency = max(latency, mesh.chip.cross_pod_link_latency)
    t_rs = reduce_scatter_time(
        n, payload_bytes, mesh.link_bandwidth, latency, closed=closed
    )
    t_ag = all_gather_time(
        n, payload_bytes, mesh.link_bandwidth, latency, closed=closed
    )
    return AllReduceBreakdown(
        reduce_scatter_y=t_rs,
        reduce_scatter_x=0.0,
        all_gather_x=0.0,
        all_gather_y=t_ag,
        shard_bytes=payload_bytes / n,
    )


def model_parallel_allreduce(
    mesh: TorusMesh, mp_size: int, payload_bytes: float
) -> float:
    """Forward/backward activation all-reduce inside one model-parallel group.

    These are the short "black rings" of Figure 4: ``mp_size`` X-adjacent
    chips summing partial matmul contributions (Section 3.1).  The group is
    an open segment of the X line, so the line formula applies.
    """
    if mp_size < 1:
        raise ValueError("mp_size must be >= 1")
    if mp_size == 1 or payload_bytes == 0:
        return 0.0
    if mp_size > mesh.x_size:
        raise ValueError(f"mp_size {mp_size} exceeds mesh x_size {mesh.x_size}")
    return ring_all_reduce_time(
        mp_size,
        payload_bytes,
        mesh.link_bandwidth,
        mesh.chip.link_latency,
        closed=False,
    )


def gradient_allreduce(
    mesh: TorusMesh,
    gradient_bytes: float,
    *,
    mp_size: int = 1,
    use_2d: bool = True,
) -> AllReduceBreakdown:
    """Gradient summation cost for one training step.

    ``gradient_bytes`` is the per-chip gradient payload on the wire (already
    halved if gradients travel in bfloat16, already ``1/mp_size`` if weights
    are model-parallel sharded).
    """
    if use_2d:
        return two_phase_allreduce(mesh, gradient_bytes, mp_size=mp_size)
    if mp_size != 1:
        raise ValueError("flat ring baseline only supports data parallelism")
    return flat_ring_allreduce(mesh, gradient_bytes)


def allreduce_launch_params(
    mesh: TorusMesh,
    *,
    mp_size: int = 1,
    use_2d: bool = True,
    probe_bytes: tuple[float, float] = (float(1 << 20), float(1 << 26)),
) -> tuple[float, float]:
    """Affine ``(alpha, bytes_per_second)`` view of the all-reduce cost.

    For any positive payload the schedule cost is affine:
    ``total(p) = alpha + p / bytes_per_second`` where ``alpha`` is the sum
    of every ring phase's latency chain (paid once per collective *launch*)
    and the slope term is the bandwidth cost, which only depends on total
    bytes.  Splitting a payload into ``k`` bucketed launches therefore
    costs exactly ``k * alpha`` extra — the latency side of the bucket-size
    trade-off the overlap engine sweeps.

    The parameters are recovered from two positive probe payloads (the
    model returns a degenerate 0.0 at payload 0, so probing there would
    miss ``alpha``).  On a single-chip mesh there is no communication:
    returns ``(0.0, inf)``.
    """
    p1, p2 = probe_bytes
    if not 0.0 < p1 < p2:
        raise ValueError("probe_bytes must be two increasing positive payloads")
    t1 = gradient_allreduce(mesh, p1, mp_size=mp_size, use_2d=use_2d).total
    t2 = gradient_allreduce(mesh, p2, mp_size=mp_size, use_2d=use_2d).total
    inv_bw = (t2 - t1) / (p2 - p1)
    if inv_bw <= 0.0:
        return max(t1, 0.0), math.inf
    alpha = max(t1 - p1 * inv_bw, 0.0)
    return alpha, 1.0 / inv_bw
