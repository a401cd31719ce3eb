"""Halo-exchange communication for spatial partitioning (Section 3.1).

When SSD/MaskRCNN images are split along a spatial dimension over ``k``
cores, every convolution with a kernel wider than 1 needs ``halo`` rows of
activations from each spatial neighbor before it can compute its own tile.
The SPMD partitioner inserts these exchanges; here we cost them and compute
the tile shapes (including the uneven tiles that cause the load imbalance
the paper mentions for SSD).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm.cost import point_to_point_time
from repro.hardware.topology import TorusMesh
from repro.refuse import count


@dataclass(frozen=True)
class SpatialShard:
    """One core's tile of a spatially partitioned activation."""

    index: int
    rows: int
    cols: int
    channels: int

    @property
    def elements(self) -> int:
        return self.rows * self.cols * self.channels


def spatial_shard_shape(
    height: int, width: int, channels: int, num_partitions: int
) -> list[SpatialShard]:
    """Tile an ``H x W x C`` activation along H over ``num_partitions`` cores.

    Uses the ceiling/floor split XLA applies: the first ``H % k`` tiles get
    one extra row.  The imbalance between largest and smallest tile is what
    limits spatial-partitioning speedups on small feature maps (Section 4.4).
    """
    count("num_partitions", num_partitions)
    count("height", height)
    count("width", width)
    count("channels", channels)
    if num_partitions > height:
        raise ValueError(
            f"cannot split {height} rows over {num_partitions} partitions"
        )
    base = height // num_partitions
    extra = height % num_partitions
    shards = []
    for i in range(num_partitions):
        rows = base + (1 if i < extra else 0)
        shards.append(SpatialShard(index=i, rows=rows, cols=width, channels=channels))
    return shards


def load_imbalance(shards: list[SpatialShard]) -> float:
    """max/mean work ratio across tiles (1.0 = perfectly balanced)."""
    if not shards:
        raise ValueError("no shards")
    sizes = [s.elements for s in shards]
    return max(sizes) * len(sizes) / sum(sizes)


def halo_exchange_time(
    mesh: TorusMesh,
    *,
    width: int,
    channels: int,
    halo_rows: int,
    dtype_bytes: int = 2,
    num_partitions: int = 2,
) -> float:
    """Time for one halo exchange between spatial neighbors.

    Each interior core exchanges ``halo_rows`` rows with both neighbors;
    the two directions overlap on the full-duplex links, so the critical
    path is one boundary transfer plus the link latency (plus a barrier-like
    synchronization the paper's XLA barrier optimization reduces — we model
    the optimized form).  One partition exchanges nothing.
    """
    halo_bytes = (
        count("halo_rows", halo_rows, minimum=0) * count("width", width)
        * count("channels", channels) * count("dtype_bytes", dtype_bytes)
    )
    if count("num_partitions", num_partitions) == 1:
        return 0.0
    return point_to_point_time(halo_bytes, mesh.link_bandwidth, mesh.chip.link_latency)


def conv_halo_rows(kernel_size: int) -> int:
    """Halo rows needed per side for a convolution kernel (stride 1)."""
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ValueError("kernel_size must be odd and positive")
    return (kernel_size - 1) // 2
