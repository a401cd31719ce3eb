"""GPU cluster comparator model (Figures 10-11).

NVIDIA's MLPerf v0.7 submissions ran on DGX systems: 8 or 16 GPUs per node
joined by NVLink/NVSwitch, nodes joined by InfiniBand.  We model the
standard NCCL-style hierarchical all-reduce — intra-node reduce-scatter over
NVLink, inter-node ring over IB on the node shards, intra-node all-gather —
which is the right abstraction level for reproducing the *shape* of the
TPU-vs-GPU end-to-end comparison.  The cluster is a description; its
all-reduce is priced by :func:`repro.comm.cost.gpu_all_reduce_time`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.chip import ChipSpec, GPU_A100, GPU_V100
from repro.refuse import count


@dataclass(frozen=True)
class GpuCluster:
    """A homogeneous GPU cluster of NVLink islands joined by InfiniBand.

    Attributes
    ----------
    chip:
        Per-GPU spec.
    num_gpus:
        Total GPU count.
    gpus_per_node:
        NVLink island size.
    nvlink_bandwidth:
        Effective per-GPU NVLink bandwidth in bytes/s (aggregate over links).
    ib_bandwidth:
        Effective per-node InfiniBand bandwidth in bytes/s.
    ib_latency:
        Per-message inter-node latency in seconds.
    nvlink_latency:
        Per-message intra-node latency in seconds.
    """

    chip: ChipSpec
    num_gpus: int
    gpus_per_node: int = 8
    nvlink_bandwidth: float = 150e9
    ib_bandwidth: float = 100e9
    ib_latency: float = 5.0e-6
    nvlink_latency: float = 2.0e-6

    def __post_init__(self) -> None:
        count("num_gpus", self.num_gpus)
        if self.num_gpus % self.gpus_per_node and self.num_gpus > self.gpus_per_node:
            raise ValueError(
                f"num_gpus {self.num_gpus} not a multiple of node size "
                f"{self.gpus_per_node}"
            )

    @property
    def num_nodes(self) -> int:
        return max(1, self.num_gpus // self.gpus_per_node)

    def compute_time(self, flops_per_gpu: float, efficiency: float) -> float:
        """Seconds of tensor-core compute per step per GPU."""
        return self.chip.matmul_time(flops_per_gpu, efficiency)


def dgx_cluster(num_gpus: int, generation: str = "a100") -> GpuCluster:
    """A DGX-style cluster of ``num_gpus`` V100s or A100s."""
    gen = generation.lower()
    if gen == "a100":
        # DGX-A100: NVSwitch ~300 GB/s usable per GPU, 8x HDR200 IB per node.
        return GpuCluster(
            chip=GPU_A100,
            num_gpus=num_gpus,
            gpus_per_node=8,
            nvlink_bandwidth=250e9,
            ib_bandwidth=180e9,
        )
    if gen == "v100":
        # DGX-2H island of 16 via NVSwitch, 8x EDR100 IB per node.
        return GpuCluster(
            chip=GPU_V100,
            num_gpus=num_gpus,
            gpus_per_node=16,
            nvlink_bandwidth=120e9,
            ib_bandwidth=80e9,
        )
    raise ValueError(f"unknown GPU generation {generation!r}; use 'v100' or 'a100'")
