"""Per-step time model: compute, communication, update, and infeed.

The model composes the hardware, communication, and model-cost layers:

* **compute** — per-replica example FLOPs over the model-parallel tile at a
  calibrated MXU efficiency, degraded by tile load imbalance and the
  unpartitionable fraction when spatially partitioned;
* **model-parallel communication** — halo exchanges (spatial) or activation
  all-reduces (feature sharding) on the short X rings;
* **gradient summation** — the 2-D hierarchical all-reduce of Section 3.3
  (or the flat-ring baseline for ablations), with bf16 payloads where the
  paper uses them;
* **weight update** — vector-unit time for the optimizer, divided by the
  replica count when weight-update sharding is on (Section 3.2);
* **infeed** — host input-pipeline throughput; the step can not run faster
  than hosts can feed it (Section 3.5).

Figures 6 and 8 are exactly the ``compute`` vs ``allreduce`` terms of this
model as functions of chip count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.comm.allreduce import (
    allreduce_launch_params,
    gradient_allreduce,
    model_parallel_allreduce,
)
from repro.comm.halo import halo_exchange_time, load_imbalance, spatial_shard_shape
from repro.core.overlap import (
    OverlapResult,
    analytic_overlap,
    layer_backward_fractions,
)
from repro.hardware.topology import TorusMesh, slice_for_chips
from repro.models.costspec import ModelCostSpec
from repro.core.strategy import ParallelismConfig
from repro.refuse import count, positive_fraction


@dataclass(frozen=True)
class StepTimeBreakdown:
    """Seconds per training step, by component.

    ``exposed_allreduce`` is set when the model ran with the overlap engine:
    it is the part of ``allreduce`` that sticks out past the backward pass
    and is the only all-reduce share the device critical path then charges.
    ``None`` means the serial schedule (every collective after compute).
    """

    compute: float
    allreduce: float
    mp_comm: float
    weight_update: float
    infeed: float
    embedding: float = 0.0
    exposed_allreduce: float | None = None

    @property
    def device_time(self) -> float:
        """Device critical path: serial sum, or overlap-aware when modeled."""
        allreduce = (
            self.allreduce
            if self.exposed_allreduce is None
            else self.exposed_allreduce
        )
        return (
            self.compute
            + allreduce
            + self.mp_comm
            + self.weight_update
            + self.embedding
        )

    @property
    def total(self) -> float:
        """Step latency: device path, unless the host pipeline is the wall."""
        return max(self.device_time, self.infeed)

    @property
    def allreduce_fraction(self) -> float:
        """Share of device step time spent in gradient all-reduce."""
        device = self.device_time
        return self.allreduce / device if device > 0 else 0.0


class StepTimeModel:
    """Step-time estimator for one benchmark on one slice.

    ``overlap=True`` replaces the serial compute-then-all-reduce schedule
    with the overlap engine of :mod:`repro.core.overlap`: the gradient
    stream is split into ``overlap_buckets`` equal-byte collectives
    launched behind the backward pass, and only the **exposed** tail is
    charged to the device critical path.  ``overlap_buckets=1`` keeps the
    collective cost identical to the serial model (one launch, same
    payload) — with nothing ready before compute ends, the step time then
    matches the serial schedule exactly.
    """

    def __init__(
        self,
        spec: ModelCostSpec,
        config: ParallelismConfig,
        *,
        mesh: TorusMesh | None = None,
        mxu_efficiency: float = 0.45,
        step_overhead: float = 1.0e-4,
        input_bandwidth_per_host: float | None = None,
        overlap: bool = False,
        overlap_buckets: int = 1,
    ) -> None:
        positive_fraction("mxu_efficiency", mxu_efficiency)
        self.overlap = overlap
        self.overlap_buckets = count("overlap_buckets", overlap_buckets)
        self.spec = spec
        self.config = config
        self.mesh = mesh if mesh is not None else slice_for_chips(config.num_chips)
        if self.mesh.num_chips != config.num_chips:
            raise ValueError(
                f"mesh has {self.mesh.num_chips} chips, config expects "
                f"{config.num_chips}"
            )
        self.mxu_efficiency = mxu_efficiency
        self.step_overhead = step_overhead
        self.input_bandwidth_per_host = input_bandwidth_per_host
        #: Overlap schedules this model has run, by bucket count: asking
        #: for the result and then the breakdown runs the DES once.
        self._overlap_results: dict[int, OverlapResult] = {}

    # --- components ---------------------------------------------------------

    def compute_time(self) -> float:
        """MXU time per step on the critical core."""
        cfg, spec, chip = self.config, self.spec, self.mesh.chip
        per_replica_flops = spec.flops_per_example * cfg.batch_per_replica
        core_flops = chip.per_core_matmul_flops * self.mxu_efficiency
        if cfg.mp_cores == 1:
            return per_replica_flops / core_flops + self.step_overhead
        if cfg.spatial_partitioning:
            # Partitionable FLOPs split over tiles with imbalance; the rest
            # (unsupported ops before the paper's XLA work) stays serial.
            part, imbalance = self._spatial_split(cfg.mp_cores)
            serial = 1.0 - part
            parallel_share = part * imbalance / cfg.mp_cores
            return per_replica_flops * (serial + parallel_share) / core_flops + self.step_overhead
        # Feature sharding splits dense work evenly.
        return per_replica_flops / (cfg.mp_cores * core_flops) + self.step_overhead

    def _spatial_split(self, k: int) -> tuple[float, float]:
        """(partitionable flops fraction, max/mean tile imbalance) at k tiles."""
        part = 0.0
        weighted_imbalance = 0.0
        for layer in self.spec.layers:
            if not layer.spatially_partitionable:
                continue
            if layer.height >= k:
                shards = spatial_shard_shape(layer.height, layer.width, layer.channels, k)
                imb = load_imbalance(shards)
            else:
                # Cannot split this few rows over k tiles: only height tiles
                # get work, the others idle -> imbalance factor k/height.
                imb = k / layer.height
            part += layer.flops_fraction
            weighted_imbalance += layer.flops_fraction * imb
        if part == 0.0:
            return 0.0, 1.0
        return part, weighted_imbalance / part

    def mp_comm_time(self) -> float:
        """Model-parallel communication: halo exchange or activation rings."""
        cfg, spec = self.config, self.spec
        if cfg.mp_cores == 1:
            return 0.0
        if cfg.spatial_partitioning:
            total = 0.0
            per_tile_batch = cfg.batch_per_replica
            for layer in spec.layers:
                if not layer.spatially_partitionable or layer.halo_rows == 0:
                    continue
                # Forward + backward exchange per spatial stage.
                per_image = halo_exchange_time(
                    self.mesh,
                    width=layer.width,
                    channels=layer.channels,
                    halo_rows=layer.halo_rows,
                    dtype_bytes=layer.activation_dtype_bytes,
                    num_partitions=cfg.mp_cores,
                )
                total += 2.0 * per_image * max(per_tile_batch, 1.0)
            return total
        payload = (
            spec.activation_allreduce_bytes_per_example * cfg.batch_per_replica
        )
        return model_parallel_allreduce(self.mesh, cfg.mp_chips, payload)

    def gradient_payload(self) -> float:
        """Gradient bytes each chip sums per step: the model's share on
        its model-parallel cores."""
        return self.spec.gradient_bytes / self.config.mp_cores

    def allreduce_time(self) -> float:
        """Cross-replica gradient summation (Section 3.3)."""
        cfg = self.config
        if cfg.num_replicas == 1:
            return 0.0
        return gradient_allreduce(
            self.mesh,
            self.gradient_payload(),
            mp_size=cfg.mp_chips if cfg.mp_chips > 1 else 1,
            use_2d=cfg.use_2d_allreduce,
        ).total

    def _launch_params(self) -> tuple[float, float]:
        """Affine (alpha, bytes/s) of one fused all-reduce on this layout."""
        cfg = self.config
        return allreduce_launch_params(
            self.mesh,
            mp_size=cfg.mp_chips if cfg.mp_chips > 1 else 1,
            use_2d=cfg.use_2d_allreduce,
        )

    def bucketed_allreduce_time(self, num_buckets: int | None = None) -> float:
        """Gradient summation cost when split into ``num_buckets`` launches.

        One bucket is *exactly* :meth:`allreduce_time` (same single launch);
        ``k`` buckets pay the per-launch latency ``alpha`` ``k`` times over
        the same total bytes.
        """
        if num_buckets is None:
            num_buckets = self.overlap_buckets
        count("num_buckets", num_buckets)
        if self.config.num_replicas == 1:
            return 0.0
        if num_buckets == 1:
            return self.allreduce_time()
        alpha, bw = self._launch_params()
        slope = self.gradient_payload() / bw if math.isfinite(bw) else 0.0
        return num_buckets * alpha + slope

    def overlap_result(self, num_buckets: int | None = None) -> OverlapResult:
        """Run the overlap engine for this model/slice at a bucket count
        (once per bucket count and model)."""
        if num_buckets is None:
            num_buckets = self.overlap_buckets
        result = self._overlap_results.get(num_buckets)
        if result is not None:
            return result
        alpha, bw = self._launch_params()
        payload = self.gradient_payload()
        if self.config.num_replicas == 1:
            payload, alpha, bw = 0.0, 0.0, math.inf
        result = self._overlap_results[num_buckets] = analytic_overlap(
            fractions=layer_backward_fractions(self.spec),
            compute_seconds=self.compute_time(),
            grad_bytes=payload,
            num_buckets=num_buckets,
            comm_alpha=alpha,
            comm_bytes_per_second=bw,
        )
        return result

    def weight_update_time(self) -> float:
        """Optimizer update time — HBM-bound (Section 3.2).

        The update streams the weights, gradients and slot variables
        through HBM; weight-update sharding divides the per-core traffic by
        the replica count.
        """
        cfg, spec, chip = self.config, self.spec, self.mesh.chip
        params_per_core = spec.params / cfg.mp_cores
        if cfg.use_weight_update_sharding:
            params_per_core /= cfg.num_replicas
        traffic = params_per_core * spec.optimizer_bytes_per_param
        return traffic / (chip.hbm_bandwidth / chip.cores)

    def embedding_time(self) -> float:
        """HBM-bound embedding traffic (DLRM)."""
        cfg, spec, chip = self.config, self.spec, self.mesh.chip
        if spec.embedding_hbm_bytes_per_example == 0:
            return 0.0
        per_core_examples = cfg.batch_per_core
        return (
            per_core_examples * spec.embedding_hbm_bytes_per_example
            / (chip.hbm_bandwidth / chip.cores)
        )

    def infeed_time(self) -> float:
        """Host-side time to feed one step's examples (per host)."""
        cfg, spec = self.config, self.spec
        host = self.mesh.host
        if spec.host_input_bytes_per_example == 0:
            return 0.0
        examples_per_host = cfg.global_batch / self.mesh.num_hosts
        bw = (
            self.input_bandwidth_per_host
            if self.input_bandwidth_per_host is not None
            else host.pcie_bandwidth
        )
        return examples_per_host * spec.host_input_bytes_per_example / bw

    def breakdown(self) -> StepTimeBreakdown:
        """Full per-step breakdown (overlap-aware when ``overlap=True``)."""
        exposed: float | None = None
        allreduce = self.bucketed_allreduce_time(self.overlap_buckets)
        if self.overlap and self.config.num_replicas > 1:
            exposed = self.overlap_result().exposed_comm_seconds
        return StepTimeBreakdown(
            compute=self.compute_time(),
            allreduce=allreduce,
            mp_comm=self.mp_comm_time(),
            weight_update=self.weight_update_time(),
            infeed=self.infeed_time(),
            embedding=self.embedding_time(),
            exposed_allreduce=exposed,
        )

    def step_time(self) -> float:
        return self.breakdown().total
