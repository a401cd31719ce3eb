"""Parallelism configuration for the analytic scaling models."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.refuse import count


@dataclass(frozen=True)
class ParallelismConfig:
    """How a benchmark is laid out on a TPU slice.

    Attributes
    ----------
    num_chips:
        Slice size in chips (each TPU-v3 chip has 2 cores).
    global_batch:
        Examples per training step across the whole slice.
    mp_cores:
        Model-parallel group size in *cores* (1 = pure data parallelism;
        SSD/MaskRCNN use up to 8, Transformer up to 4 — Section 3.1).
    use_weight_update_sharding:
        Section 3.2's distributed optimizer update.
    use_2d_allreduce:
        The hierarchical gradient summation of Section 3.3 (vs. a flat
        single ring, kept for ablation).
    spatial_partitioning:
        Whether model parallelism shards the spatial dims (SSD/MaskRCNN)
        rather than feature dims (Transformer).
    sharding_source:
        Where the model-parallel sharding comes from: ``"annotated"`` (the
        paper's hand-written annotations) or ``"searched"`` (found by
        :func:`repro.spmd.search.search_partitioning`).
    """

    num_chips: int
    global_batch: int
    mp_cores: int = 1
    use_weight_update_sharding: bool = True
    use_2d_allreduce: bool = True
    spatial_partitioning: bool = False
    sharding_source: str = "annotated"

    def __post_init__(self) -> None:
        if self.sharding_source not in ("annotated", "searched"):
            raise ValueError(
                f"sharding_source must be 'annotated' or 'searched', "
                f"got {self.sharding_source!r}"
            )
        count("num_chips", self.num_chips)
        count("global_batch", self.global_batch)
        count("mp_cores", self.mp_cores)
        # An oversized group is the more fundamental mistake — report it
        # before any divisibility complaint about the same value.
        if self.mp_cores > self.num_cores:
            raise ValueError(
                f"mp_cores exceeds total cores "
                f"({self.mp_cores} > {self.num_cores})"
            )
        if self.num_cores % self.mp_cores != 0:
            raise ValueError(
                f"{self.num_cores} cores not divisible by mp_cores={self.mp_cores}"
            )

    @property
    def num_cores(self) -> int:
        return self.num_chips * 2

    @property
    def mp_chips(self) -> int:
        """Chips spanned by one model-parallel group (2 cores per chip)."""
        return max(1, self.mp_cores // 2)

    @property
    def num_replicas(self) -> int:
        """Data-parallel replica count."""
        return self.num_cores // self.mp_cores

    @property
    def batch_per_replica(self) -> float:
        return self.global_batch / self.num_replicas

    @property
    def batch_per_core(self) -> float:
        return self.global_batch / self.num_cores

    def with_(self, **changes) -> "ParallelismConfig":
        """A modified copy (ablation helper)."""
        return replace(self, **changes)
