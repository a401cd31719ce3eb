"""Alpha-beta cost formulas for ring/line collectives and neighbour transfers.

Conventions
-----------
* ``payload_bytes`` is the per-participant buffer size *before* the
  collective (the gradient size for reduce-scatter, the full result size
  for all-gather).
* Links are full duplex with ``bandwidth`` bytes/s per direction.
* A **closed** ring (a torus dimension) runs the bidirectional ring
  algorithm: the payload is split in two halves circulating in opposite
  directions, so the bandwidth term sees ``2 x bandwidth``.
* An **open** line (a mesh dimension) is limited by its bisection: the
  middle link must carry the full payload in each direction, so the
  bandwidth term sees only ``1 x bandwidth``.  (This is exactly why the
  paper routes the bulk of the gradient reduction along the Y *torus*
  dimension and leaves only ``1/y_size`` of the payload for the X mesh.)
* ``hop_links`` is the number of physical links between ring neighbors
  (``m`` for the model-peer rings of Figure 4 that hop over ``m-1``
  model-parallel chips).
* ``bandwidth_fraction`` accounts for physical links shared by several
  logical rings (the ``m`` peer rings of an ``m``-way model-parallel job
  share every X link, so each sees ``1/m`` of it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.hardware.rings import Ring
from repro.hardware.topology import LinkKind, TorusMesh
from repro.refuse import count, non_negative, positive, positive_fraction

if TYPE_CHECKING:
    from repro.hardware.gpu import GpuCluster


def _validate(num_members: int, payload_bytes: float, bandwidth: float, latency: float) -> None:
    count("num_members", num_members)
    non_negative("payload_bytes", payload_bytes)
    positive("bandwidth", bandwidth)
    non_negative("latency", latency)


def point_to_point_time(payload_bytes: float, bandwidth: float, latency: float) -> float:
    """One neighbour transfer (a halo exchange, a reshard): latency + bytes/bandwidth."""
    non_negative("payload_bytes", payload_bytes)
    positive("bandwidth", bandwidth)
    return non_negative("latency", latency) + payload_bytes / bandwidth


def reduce_scatter_time(
    num_members: int,
    payload_bytes: float,
    bandwidth: float,
    latency: float,
    *,
    closed: bool = True,
    hop_links: int = 1,
    bandwidth_fraction: float = 1.0,
) -> float:
    """Time for a ring/line reduce-scatter leaving each member 1/n of the sum."""
    _validate(num_members, payload_bytes, bandwidth, latency)
    positive_fraction("bandwidth_fraction", bandwidth_fraction)
    n = num_members
    if n == 1 or payload_bytes == 0:
        return 0.0
    bw = bandwidth * bandwidth_fraction
    directions = 2.0 if closed else 1.0
    bandwidth_term = (n - 1) / n * payload_bytes / (directions * bw)
    latency_term = (n - 1) * latency * hop_links
    return bandwidth_term + latency_term


def all_gather_time(
    num_members: int,
    payload_bytes: float,
    bandwidth: float,
    latency: float,
    *,
    closed: bool = True,
    hop_links: int = 1,
    bandwidth_fraction: float = 1.0,
) -> float:
    """Time for a ring/line all-gather assembling a ``payload_bytes`` result.

    ``payload_bytes`` is the *full* gathered size; each member starts with a
    ``payload_bytes / n`` shard.  The data motion mirrors reduce-scatter, so
    the cost formula is identical.
    """
    return reduce_scatter_time(
        num_members, payload_bytes, bandwidth, latency,
        closed=closed, hop_links=hop_links, bandwidth_fraction=bandwidth_fraction,
    )


def ring_all_reduce_time(
    num_members: int,
    payload_bytes: float,
    bandwidth: float,
    latency: float,
    *,
    closed: bool = True,
    hop_links: int = 1,
    bandwidth_fraction: float = 1.0,
) -> float:
    """Reduce-scatter followed by all-gather (the classic ring all-reduce)."""
    return 2.0 * reduce_scatter_time(
        num_members, payload_bytes, bandwidth, latency,
        closed=closed, hop_links=hop_links, bandwidth_fraction=bandwidth_fraction,
    )


def gpu_all_reduce_time(cluster: "GpuCluster", payload_bytes: float) -> float:
    """Hierarchical (NCCL-style) all-reduce of one replica payload on a GPU
    cluster (Figures 10-11).

    The reduce-scatter and all-gather over each node's NVLink island
    bracket a ring all-reduce over InfiniBand of the ``1 / gpus_per_node``
    shard; both are open rings.  Free at zero bytes, as every ring here.
    """
    n_local = min(cluster.num_gpus, cluster.gpus_per_node)
    nvlink = ring_all_reduce_time(
        n_local, payload_bytes, cluster.nvlink_bandwidth, cluster.nvlink_latency,
        closed=False,
    )
    return nvlink + ring_all_reduce_time(
        cluster.num_nodes, payload_bytes / n_local, cluster.ib_bandwidth,
        cluster.ib_latency, closed=False,
    )


@dataclass(frozen=True)
class RingCostParams:
    """Concrete alpha-beta parameters extracted from a mesh ring."""

    num_members: int
    bandwidth: float
    latency: float
    closed: bool
    hop_links: int


def ring_cost_for(mesh: TorusMesh, ring: Ring) -> RingCostParams:
    """Extract cost parameters for a ring laid out on a mesh.

    The per-step latency is gated by the slowest link any segment uses —
    on a multipod X line that is the cross-pod optical link.
    """
    worst_latency = mesh.chip.link_latency
    for segment in ring.segments(mesh):
        for link in segment:
            if link.kind is LinkKind.CROSS_POD:
                worst_latency = max(worst_latency, mesh.chip.cross_pod_link_latency)
    return RingCostParams(
        num_members=ring.size,
        bandwidth=mesh.link_bandwidth,
        latency=worst_latency,
        closed=ring.closed,
        hop_links=ring.hop_stride,
    )
