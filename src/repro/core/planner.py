"""Automatic parallelism planning, reproducing the paper's per-model choices.

Summary (Section 6): data parallelism carried BERT and ResNet-50 to 4096
chips; model parallelism carried SSD, MaskRCNN and Transformer to the
largest scales; DLRM stayed on a slice.  The planner encodes the two
constraints that force those choices:

* the **largest converging global batch** (65536 for ResNet/DLRM, ~8192 for
  BERT under LAMB, 4096 for SSD, 256 for MaskRCNN, 2048 for Transformer);
* a **per-chip batch cap** from memory/efficiency at small scale.

When a slice has more cores than the batch has examples, the surplus
concurrency must come from model parallelism: ``mp_cores = cores / batch``
(capped by each model's partitioning limit).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.strategy import ParallelismConfig
from repro.models.costspec import ModelCostSpec
from repro.refuse import count, known


@dataclass(frozen=True)
class PlannerRules:
    """Batch and model-parallelism envelope for one benchmark."""

    max_global_batch: int
    per_chip_batch_cap: int
    max_mp_cores: int = 1
    spatial: bool = False


#: Envelopes reconstructed from Sections 4-5 and Figures 6/8.
PLANNER_RULES: dict[str, PlannerRules] = {
    "resnet50": PlannerRules(max_global_batch=65536, per_chip_batch_cap=256),
    "bert": PlannerRules(max_global_batch=8192, per_chip_batch_cap=48),
    "transformer": PlannerRules(
        max_global_batch=2048, per_chip_batch_cap=2048, max_mp_cores=4
    ),
    "ssd": PlannerRules(
        max_global_batch=4096, per_chip_batch_cap=32, max_mp_cores=8, spatial=True
    ),
    "maskrcnn": PlannerRules(
        max_global_batch=256, per_chip_batch_cap=4, max_mp_cores=8, spatial=True
    ),
    "dlrm": PlannerRules(max_global_batch=65536, per_chip_batch_cap=2048),
}


#: models whose IR graph the sharding search can explore (mp candidates).
_SEARCHABLE_GRAPHS = ("ssd", "maskrcnn", "transformer")


@dataclass(frozen=True)
class PlanChoice:
    """A planned layout plus the reasoning, for reports.

    ``partition_plan`` is the search-found
    :class:`repro.spmd.plan.PartitionPlan` when the planner ran with
    ``search_sharding=True`` on a model-parallel layout (None otherwise).
    """

    config: ParallelismConfig
    rationale: str
    partition_plan: object | None = None


def _search_model_sharding(name: str, mp_cores: int, seed: int):
    """Search the model's IR graph for an mp_cores-way sharding."""
    # Imported lazily: repro.spmd pulls in the runtime mesh, which the
    # analytic planner otherwise never needs.
    from repro.spmd import SearchConfig, make_partitioner, search_partitioning
    from repro.spmd.modelgraphs import (
        maskrcnn_graph,
        ssd_graph,
        transformer_block_graph,
    )

    builders = {
        "ssd": ssd_graph,
        "maskrcnn": maskrcnn_graph,
        "transformer": transformer_block_graph,
    }
    graph = builders[name]()
    result = search_partitioning(
        graph,
        SearchConfig(num_shards=mp_cores, seed=seed, seed_nodes="handles"),
        make_partitioner("v07"),
    )
    return result.best


def plan_parallelism(
    spec: ModelCostSpec,
    num_chips: int,
    *,
    search_sharding: bool = False,
    search_seed: int = 0,
) -> PlanChoice:
    """Choose batch size and model parallelism for a benchmark on a slice.

    With ``search_sharding=True``, model-parallel layouts for models with
    an IR graph are backed by the automatic partitioner search instead of
    the hand annotations; the winning plan rides along on the choice.
    """
    count("num_chips", num_chips)
    rules = known("spec.name", spec.name, PLANNER_RULES)
    cores = num_chips * 2
    global_batch = min(rules.max_global_batch, rules.per_chip_batch_cap * num_chips)
    if cores > global_batch:
        # More cores than examples: concurrency must come from model
        # parallelism (Section 3.1).
        needed = cores // global_batch
        mp_cores = min(rules.max_mp_cores, needed)
        if needed > rules.max_mp_cores:
            rationale = (
                f"batch {global_batch} < {cores} cores and model parallelism "
                f"caps at {rules.max_mp_cores} cores; slice is oversized for "
                f"{spec.name} (the paper stops {spec.name} below this scale)"
            )
        else:
            kind = "spatial" if rules.spatial else "feature"
            rationale = (
                f"batch capped at {global_batch}: {kind} model parallelism "
                f"over {mp_cores} cores supplies the remaining concurrency"
            )
        # Keep replicas integral.
        while cores % mp_cores != 0:
            mp_cores -= 1
    else:
        mp_cores = 1
        if global_batch < rules.max_global_batch:
            rationale = (
                f"data parallelism, batch {global_batch} "
                f"({rules.per_chip_batch_cap}/chip cap at this scale)"
            )
        else:
            rationale = (
                f"data parallelism at the largest converging batch "
                f"{global_batch}"
            )
    partition_plan = None
    sharding_source = "annotated"
    if search_sharding and mp_cores > 1 and spec.name in _SEARCHABLE_GRAPHS:
        partition_plan = _search_model_sharding(spec.name, mp_cores, search_seed)
        sharding_source = "searched"
        rationale += (
            f"; sharding searched: {len(partition_plan.spec.assignments)} "
            f"annotations, est {partition_plan.total_seconds * 1e3:.3f} ms/tile-step"
        )
    config = ParallelismConfig(
        num_chips=num_chips,
        global_batch=global_batch,
        mp_cores=mp_cores,
        spatial_partitioning=rules.spatial and mp_cores > 1,
        sharding_source=sharding_source,
    )
    return PlanChoice(
        config=config, rationale=rationale, partition_plan=partition_plan
    )
