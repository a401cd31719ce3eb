"""Cost specifications for the MLPerf v0.7 benchmark models.

A :class:`ModelCostSpec` captures everything the analytic scaling models
need about a benchmark: arithmetic work per example, parameter/gradient
payloads, dataset sizes, the MLPerf submission batch size, and a coarse
per-layer profile used by the model-parallelism estimators (spatial tile
shapes and halo widths for the segmentation models, activation all-reduce
payloads for the feature-sharded Transformer).

The numbers come from the public model descriptions (He et al. 2016,
Devlin et al. 2018, Vaswani et al. 2017, Liu et al. SSD, MaskRCNN, Naumov
et al. DLRM) and the MLPerf v0.7 rules; they are inputs to a *shape*
reproduction, not testbed measurements.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.refuse import count, fraction, positive


@dataclass(frozen=True)
class LayerCost:
    """A coarse stage of a model, for partitioning analysis.

    ``flops_fraction`` is the share of total per-example training FLOPs in
    this stage.  Spatial fields describe activation geometry where spatial
    partitioning applies.
    """

    name: str
    flops_fraction: float
    height: int = 1
    width: int = 1
    channels: int = 1
    spatially_partitionable: bool = False
    halo_rows: int = 0
    activation_dtype_bytes: int = 2

    def __post_init__(self) -> None:
        fraction("flops_fraction", self.flops_fraction)
        count("height", self.height)
        count("width", self.width)
        count("channels", self.channels)


@dataclass(frozen=True)
class ModelCostSpec:
    """Scaling-relevant accounting for one MLPerf benchmark."""

    name: str
    params: float
    """Trainable parameter count."""
    flops_per_example: float
    """Training FLOPs (forward + backward) per example."""
    dataset_examples: float
    """Training-set size (examples per epoch)."""
    eval_examples: float
    """Evaluation-set size."""
    quality_target: str
    """The MLPerf convergence criterion, for documentation."""
    reference_global_batch: int
    """Global batch of the paper's submission."""
    optimizer: str = "sgd"
    optimizer_flops_per_param: float = 5.0
    optimizer_bytes_per_param: float = 16.0
    """HBM traffic per parameter per update (reads+writes of the weight,
    gradient and slot variables).  The optimizer update is memory-bound on
    TPUs, which is why LAMB's replicated update reached ~18% of the BERT
    step (Section 3.2): SGD+momentum ~16 B, LARS ~24 B, Adam ~36 B,
    LAMB ~40 B."""
    weight_dtype_bytes: int = 4
    grad_wire_dtype_bytes: int = 4
    """Bytes per gradient element on the wire (2 when summed in bfloat16)."""
    layers: tuple[LayerCost, ...] = field(default=())
    activation_allreduce_bytes_per_example: float = 0.0
    """Feature-sharded MP: activation bytes all-reduced per example per pass."""
    embedding_hbm_bytes_per_example: float = 0.0
    """DLRM-style embedding traffic (HBM-bound) per example."""
    max_model_parallel_cores: int = 1
    """Largest model-parallel tile the paper uses for this benchmark."""
    supports_large_batch_scaling: bool = True
    """Whether data parallelism alone reaches multipod scale (BERT/ResNet)."""
    host_input_bytes_per_example: float = 0.0
    """Bytes the host pipeline must feed per example (over PCIe)."""

    def __post_init__(self) -> None:
        positive("params", self.params)
        positive("flops_per_example", self.flops_per_example)
        count("reference_global_batch", self.reference_global_batch)
        total = sum(layer.flops_fraction for layer in self.layers)
        if self.layers and total > 1.0 + 1e-9:
            raise ValueError(f"layer flops fractions sum to {total} > 1")

    @property
    def gradient_bytes(self) -> float:
        """Per-replica gradient payload on the wire."""
        return self.params * self.grad_wire_dtype_bytes
