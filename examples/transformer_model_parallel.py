"""Model parallelism for the Transformer benchmark (Sections 3.1 / 4.3).

Two views of the same technique:

1. **Functional**: trains an MLP with feature-sharded weights (the
   Mesh-TensorFlow-style column/row sharding the paper applies to the
   Transformer's attention and feed-forward layers) on a hybrid
   data x model device grid, with real all-reduces inside model groups and
   peer gradient reductions across replicas (Figure 4) — and checks
   equivalence with single-device training.
2. **Compiler view**: partitions the Transformer-block IR graph with the
   SPMD partitioner, prints the inserted communication, and reports the
   Figure 9 speedup curve (paper anchor: ~2.3x on 4 cores).

Run:
    python examples/transformer_model_parallel.py
"""

import functools

import numpy as np

from repro.core import TrainerConfig, make_trainer
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import SGDMomentum
from repro.spmd import ShardingSpec, make_partitioner, model_parallel_speedup
from repro.spmd.modelgraphs import transformer_block_graph, transformer_seeds


def functional_demo() -> None:
    print("=== functional: hybrid data x model parallel training ===")
    rng = np.random.default_rng(0)
    model = MLP([16, 32, 16, 4])
    x, y = synthetic_classification(rng, 96, 16, 4)

    base = TrainerConfig(model=model, optimizer=SGDMomentum(0.1), seed=1)
    ref = make_trainer(base.with_(strategy="single"))
    hybrid = make_trainer(
        base.with_(strategy="hybrid", mesh_shape=(3, 1), mp_size=4)
    )

    for step in range(10):
        ref_loss = ref.step(x, y)
        hyb_loss = hybrid.step(x, y)
    diff = max(
        float(np.max(np.abs(hybrid.full_params()[k] - ref.params[k])))
        for k in ref.params
    )
    print(f"3 replicas x 4 model cores, 10 steps: loss {hyb_loss:.6f} "
          f"(single device {ref_loss:.6f})")
    print(f"max |param difference| vs single device: {diff:.3e}\n")


def compiler_demo() -> None:
    print("=== compiler view: SPMD partitioning of a Transformer block ===")
    graph = transformer_block_graph(seq=27)
    partitioner = make_partitioner("v07")
    plan = partitioner.partition(
        graph, ShardingSpec.from_seeds(4, dict(transformer_seeds(graph, 4)))
    )
    print("sharded tensors:")
    for name, node_id in graph.handles.items():
        print(f"  {name:12s} -> {plan.shardings[node_id].describe()}")
    print("inserted communication:")
    for op in plan.comm_ops:
        print(f"  {op.kind:11s} after {graph.node(op.node_id).name:12s} "
              f"{op.bytes_per_shard / 1e3:8.1f} KB/core")
    print(f"comm fraction of the partitioned step: {plan.cost.comm_fraction:.1%}\n")

    builder = functools.partial(transformer_block_graph, seq=27)
    speedups = model_parallel_speedup(builder, transformer_seeds, [1, 2, 4])
    print("Figure 9 series (paper: ~2.3x at 4 cores):")
    for cores, speedup in speedups.items():
        print(f"  {cores} cores: {speedup:.2f}x")


if __name__ == "__main__":
    functional_demo()
    compiler_demo()
