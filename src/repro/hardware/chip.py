"""Accelerator chip and host specifications.

The numbers for TPU chips follow the public descriptions in Jouppi et al.
(CACM 2020, "A domain-specific supercomputer for training deep neural
networks") and the MLPerf v0.6 scaling paper (Kumar et al., 2019); GPU
numbers follow NVIDIA's public datasheets.  Interconnect numbers are
effective (achievable) bandwidths, not signalling rates, and are the
calibration anchors discussed in DESIGN.md section 5.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.refuse import count, positive, positive_fraction


@dataclass(frozen=True)
class ChipSpec:
    """Static description of one accelerator chip.

    Attributes
    ----------
    name:
        Human-readable identifier, e.g. ``"tpu-v3"``.
    cores:
        Number of accelerator cores per chip (TPU-v3 has 2; we treat a GPU
        as a single core).
    peak_matmul_flops:
        Peak dense-matmul throughput of the whole chip in FLOP/s at the
        low-precision training format (bf16 for TPUs, fp16/tf32 tensor cores
        for GPUs).
    peak_vector_flops:
        Peak throughput of the vector (non-MXU) units in FLOP/s; optimizer
        weight updates run here (Section 3.2 of the paper).
    hbm_bytes:
        On-chip high-bandwidth-memory capacity in bytes.
    hbm_bandwidth:
        HBM bandwidth in bytes/s.
    link_bandwidth:
        Effective per-direction bandwidth of one inter-chip interconnect
        (ICI) link in bytes/s.
    link_latency:
        One-hop latency of a within-pod ICI link, in seconds.
    cross_pod_link_latency:
        Latency of the longer cross-pod optical links (Figure 2), seconds.
    num_links:
        Number of ICI link ports on the chip (TPU-v3: 4, arranged +x/-x/+y/-y
        in the 2-D torus).
    routing_table_entries:
        Size of the on-chip routing table.  The paper notes TPU-v3 has only
        1024 entries, which forces the sparse row/column routing scheme on a
        4096-chip multipod.
    """

    name: str
    cores: int
    peak_matmul_flops: float
    peak_vector_flops: float
    hbm_bytes: float
    hbm_bandwidth: float
    link_bandwidth: float
    link_latency: float = 1.0e-6
    cross_pod_link_latency: float = 3.0e-6
    num_links: int = 4
    routing_table_entries: int = 1024

    def __post_init__(self) -> None:
        count("cores", self.cores)
        for attr in (
            "peak_matmul_flops",
            "peak_vector_flops",
            "hbm_bytes",
            "hbm_bandwidth",
            "link_bandwidth",
        ):
            positive(attr, getattr(self, attr))

    @property
    def per_core_matmul_flops(self) -> float:
        """Peak matmul FLOP/s available to one core."""
        return self.peak_matmul_flops / self.cores

    def matmul_time(self, flops: float, efficiency: float = 1.0) -> float:
        """Seconds to execute ``flops`` on the matrix units.

        ``efficiency`` is the achieved fraction of peak (model-dependent;
        calibrated per benchmark in :mod:`repro.experiments.calibration`).
        """
        positive_fraction("efficiency", efficiency)
        return flops / (self.peak_matmul_flops * efficiency)

    def hbm_time(self, num_bytes: float) -> float:
        """Seconds to stream ``num_bytes`` through HBM."""
        return num_bytes / self.hbm_bandwidth


@dataclass(frozen=True)
class HostSpec:
    """A CPU host feeding accelerator chips over PCIe.

    Attributes
    ----------
    chips_per_host:
        TPU-v3 systems attach 8 chips (4 boards) per host.
    pcie_bandwidth:
        Host-to-accelerator bandwidth in bytes/s (per host).
    cpu_cores:
        Worker threads available to the input pipeline.
    jpeg_decode_rate:
        Host throughput decoding JPEG images, in (compressed) bytes/s per
        core; drives the ResNet-50 input-pipeline imbalance study (§3.5).
    memcpy_rate:
        Host memory bandwidth available to pipeline stages, bytes/s per core.
    """

    chips_per_host: int = 8
    pcie_bandwidth: float = 16.0e9
    cpu_cores: int = 96
    jpeg_decode_rate: float = 200.0e6
    memcpy_rate: float = 5.0e9

    def __post_init__(self) -> None:
        count("chips_per_host", self.chips_per_host)


# --- TPU generations ------------------------------------------------------

TPU_V2 = ChipSpec(
    name="tpu-v2",
    cores=2,
    peak_matmul_flops=46e12,
    peak_vector_flops=3e12,
    hbm_bytes=16 * 2**30,
    hbm_bandwidth=700e9,
    link_bandwidth=62.5e9,
)

TPU_V3 = ChipSpec(
    name="tpu-v3",
    cores=2,
    peak_matmul_flops=123e12,
    peak_vector_flops=4e12,
    hbm_bytes=32 * 2**30,
    hbm_bandwidth=900e9,
    # 656 Gb/s signalling per link; ~70 GB/s effective per direction.
    link_bandwidth=70e9,
)

TPU_V4 = ChipSpec(
    name="tpu-v4",
    cores=2,
    peak_matmul_flops=275e12,
    peak_vector_flops=8e12,
    hbm_bytes=32 * 2**30,
    hbm_bandwidth=1200e9,
    link_bandwidth=100e9,
    num_links=6,
)

# --- GPU comparators (Figures 10-11) --------------------------------------

GPU_V100 = ChipSpec(
    name="gpu-v100",
    cores=1,
    peak_matmul_flops=125e12,  # fp16 tensor cores
    peak_vector_flops=15.7e12,
    hbm_bytes=32 * 2**30,
    hbm_bandwidth=900e9,
    # NVLink2: 6 links x 25 GB/s/direction; modelled per-"port" below.
    link_bandwidth=25e9,
    num_links=6,
    link_latency=1.5e-6,
)

GPU_A100 = ChipSpec(
    name="gpu-a100",
    cores=1,
    peak_matmul_flops=312e12,  # fp16/bf16 tensor cores
    peak_vector_flops=19.5e12,
    hbm_bytes=40 * 2**30,
    hbm_bandwidth=1555e9,
    link_bandwidth=50e9,
    num_links=12,
    link_latency=1.5e-6,
)

TPU_V3_HOST = HostSpec()
