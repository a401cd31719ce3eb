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

from repro._lazy import lazy_exports

_EXPORTS = {
    # IR
    "Graph": "ir",
    "Node": "ir",
    "ShapeError": "ir",
    # layouts
    "Sharding": "annotations",
    # supported facade (PR 5 trainer pattern)
    "ShardingSpec": "plan",
    "make_partitioner": "plan",
    "Partitioner": "plan",
    "PartitionPlan": "plan",
    "FEATURE_SETS": "plan",
    # partitioner internals (feature flags + results)
    "PartitionerFeatures": "partitioner",
    "PartitionedGraph": "partitioner",
    "CommOp": "partitioner",
    "V06_FEATURES": "partitioner",
    "V07_FEATURES": "partitioner",
    "PartitionCost": "estimator",
    "model_parallel_speedup": "plan",
    # automatic search
    "SearchConfig": "search",
    "SearchResult": "search",
    "SearchStats": "search",
    "search_partitioning": "search",
    # bit-exact execution
    "ExecutionUnsupported": "graph_exec",
    "ValidationResult": "graph_exec",
    "execute_plan": "graph_exec",
    "execute_reference": "graph_exec",
    "make_inputs": "graph_exec",
    "validate_plan": "graph_exec",
    # model graphs
    "ssd_graph": "modelgraphs",
    "maskrcnn_graph": "modelgraphs",
    "resnet_block_graph": "modelgraphs",
    "transformer_block_graph": "modelgraphs",
    # functional kernels
    "gather_as_onehot_matmul": "gather_exec",
    "sharded_onehot_gather": "gather_exec",
    "topk_direct": "gather_exec",
    "distributed_topk": "gather_exec",
    "conv2d_direct": "spatial_exec",
    "shard_height": "spatial_exec",
    "unshard_height": "spatial_exec",
    "halo_exchange": "spatial_exec",
    "spatial_conv2d": "spatial_exec",
    "spatial_conv_stack": "spatial_exec",
}

__all__ = list(_EXPORTS)

__getattr__ = lazy_exports(__name__, _EXPORTS)
