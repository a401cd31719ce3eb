"""An SPMD partitioner in the style of XLA's (Lepikhin et al. 2020).

Section 3.1 of the paper parallelizes models by annotating tensors with
sharding and letting the compiler partition the graph, inserting halo
exchanges (spatial partitioning), all-reduces (contracting-dimension
sharding), and reshards.  This subpackage reproduces that machinery on a
small tensor IR — and searches it automatically:

* :mod:`repro.spmd.ir` — a minimal static-shape tensor graph (conv2d,
  matmul, gather, topk, elementwise, ...) with FLOP/byte accounting and
  per-node dtypes;
* :mod:`repro.spmd.annotations` — sharding layouts (replicated / split
  along a dim / partial-pending-reduction);
* :mod:`repro.spmd.plan` — **the supported public surface**: a validated
  frozen :class:`ShardingSpec`, the :func:`make_partitioner` factory, the
  :class:`PartitionPlan` result (assignments + inserted comm + cost), and
  the Figure 9 speedup curves (:func:`model_parallel_speedup`);
* :mod:`repro.spmd.partitioner` — annotation propagation and communication
  insertion over int-coded layouts, with feature flags reproducing the
  paper's v0.6 -> v0.7 XLA improvements (gather/topk partitioning, gather
  -> one-hot matmul, reshard minimization, Section 4.5);
* :mod:`repro.spmd.estimator` — per-device compute/communication cost of a
  partitioned graph on a mesh (one accumulation loop over a per-call
  price table), behind :class:`Partitioner`;
* :mod:`repro.spmd.search` — GSPMD-style automatic partitioner search:
  beam-search per-tensor shardings, prune on propagation feasibility,
  rank by estimated step time (:func:`search_partitioning`);
* :mod:`repro.spmd.graph_exec` — bit-exact execution of plans on a
  :class:`~repro.runtime.mesh.VirtualMesh` (:func:`validate_plan`);
* :mod:`repro.spmd.modelgraphs` — IR graphs for SSD, MaskRCNN, a small
  executable ResNet block, and the Transformer model-parallel block.

Supported API::

    from repro.spmd import Sharding, ShardingSpec, make_partitioner
    plan = make_partitioner("v07").partition(graph, spec)   # PartitionPlan
    result = search_partitioning(graph, SearchConfig(num_shards=4))
"""

from repro.spmd.ir import Graph, Node, ShapeError
from repro.spmd.annotations import Sharding
from repro.spmd.plan import (
    FEATURE_SETS,
    Partitioner,
    PartitionPlan,
    ShardingSpec,
    make_partitioner,
    model_parallel_speedup,
)
from repro.spmd.partitioner import (
    PartitionerFeatures,
    PartitionedGraph,
    CommOp,
    V06_FEATURES,
    V07_FEATURES,
)
from repro.spmd.estimator import PartitionCost
from repro.spmd.search import (
    SearchConfig,
    SearchResult,
    SearchStats,
    search_partitioning,
)
from repro.spmd.graph_exec import (
    ExecutionUnsupported,
    ValidationResult,
    execute_plan,
    execute_reference,
    make_inputs,
    validate_plan,
)
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    ssd_graph,
    transformer_block_graph,
)
from repro.spmd.gather_exec import (
    gather_as_onehot_matmul,
    sharded_onehot_gather,
    topk_direct,
    distributed_topk,
)
from repro.spmd.spatial_exec import (
    conv2d_direct,
    shard_height,
    unshard_height,
    halo_exchange,
    spatial_conv2d,
    spatial_conv_stack,
)

__all__ = [
    # IR
    "Graph",
    "Node",
    "ShapeError",
    # layouts
    "Sharding",
    # supported facade (PR 5 trainer pattern)
    "ShardingSpec",
    "make_partitioner",
    "Partitioner",
    "PartitionPlan",
    "FEATURE_SETS",
    # partitioner internals (feature flags + results)
    "PartitionerFeatures",
    "PartitionedGraph",
    "CommOp",
    "V06_FEATURES",
    "V07_FEATURES",
    "PartitionCost",
    "model_parallel_speedup",
    # automatic search
    "SearchConfig",
    "SearchResult",
    "SearchStats",
    "search_partitioning",
    # bit-exact execution
    "ExecutionUnsupported",
    "ValidationResult",
    "execute_plan",
    "execute_reference",
    "make_inputs",
    "validate_plan",
    # model graphs
    "ssd_graph",
    "maskrcnn_graph",
    "resnet_block_graph",
    "transformer_block_graph",
    # functional kernels
    "gather_as_onehot_matmul",
    "sharded_onehot_gather",
    "topk_direct",
    "distributed_topk",
    "conv2d_direct",
    "shard_height",
    "unshard_height",
    "halo_exchange",
    "spatial_conv2d",
    "spatial_conv_stack",
]
