"""Per-core HBM footprint model.

The paper's per-chip batch caps (256/chip for ResNet, 48 for BERT, ...)
and its structural choices (weight-update sharding keeps optimizer slots
*sharded*; DLRM must partition its embedding tables) are memory facts.
This model accounts the resident bytes of one core under a parallelism
config:

* weights and gradients (divided by the model-parallel tile);
* optimizer slot variables — divided by the replica count when
  weight-update sharding is on (slots only ever exist sharded, §3.2);
* activations, proportional to the per-core batch.

and checks them against the chip's per-core HBM budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.strategy import ParallelismConfig
from repro.hardware.chip import ChipSpec, TPU_V3
from repro.models.costspec import ModelCostSpec

#: Slot bytes per parameter by optimizer family (fp32 slots).
OPTIMIZER_SLOT_BYTES: dict[str, float] = {
    "sgd": 4.0,    # momentum
    "lars": 4.0,   # momentum
    "lamb": 8.0,   # m + v
    "adam": 8.0,   # m + v
}

#: Rough resident activation bytes per example (bf16, with the
#: rematerialization typical of these models).
ACTIVATION_BYTES_PER_EXAMPLE: dict[str, float] = {
    "resnet50": 30e6,
    "bert": 100e6,
    "transformer": 5e6,
    "ssd": 20e6,
    "maskrcnn": 300e6,
    "dlrm": 2e4,
}

#: Fraction of HBM available to the model (the rest holds compiled
#: programs, infeed buffers, and the runtime).
USABLE_HBM_FRACTION = 0.9


@dataclass(frozen=True)
class MemoryFootprint:
    """Resident bytes on one core."""

    weights: float
    gradients: float
    optimizer_slots: float
    activations: float

    @property
    def total(self) -> float:
        return self.weights + self.gradients + self.optimizer_slots + self.activations


class MemoryModel:
    """HBM accounting for one benchmark under a parallelism config."""

    def __init__(
        self,
        spec: ModelCostSpec,
        config: ParallelismConfig,
        chip: ChipSpec = TPU_V3,
    ) -> None:
        self.spec = spec
        self.config = config
        self.chip = chip

    @property
    def per_core_budget(self) -> float:
        return self.chip.hbm_bytes / self.chip.cores * USABLE_HBM_FRACTION

    def footprint(self) -> MemoryFootprint:
        spec, cfg = self.spec, self.config
        params_per_core = spec.params / cfg.mp_cores
        weights = params_per_core * spec.weight_dtype_bytes
        gradients = params_per_core * spec.weight_dtype_bytes
        slot_bytes = OPTIMIZER_SLOT_BYTES.get(spec.optimizer, 8.0)
        slots = params_per_core * slot_bytes
        if cfg.use_weight_update_sharding:
            slots /= cfg.num_replicas
        act_per_example = ACTIVATION_BYTES_PER_EXAMPLE.get(spec.name, 10e6)
        activations = cfg.batch_per_core * act_per_example
        return MemoryFootprint(
            weights=weights,
            gradients=gradients,
            optimizer_slots=slots,
            activations=activations,
        )

    def fits(self) -> bool:
        return self.footprint().total <= self.per_core_budget

    def max_batch_per_core(self) -> float:
        """Largest per-core batch the activation budget allows."""
        fixed = self.footprint()
        static = fixed.weights + fixed.gradients + fixed.optimizer_slots
        act = ACTIVATION_BYTES_PER_EXAMPLE.get(self.spec.name, 10e6)
        return max(0.0, (self.per_core_budget - static) / act)
