"""What one 2-D data-parallel step holds in memory, bounded.

On a mesh whose dims both exceed 1, the data-parallel step streams one
mesh column of gradients at a time through its Y-phase rings, so its
gradient blocks are ``(dp_y, bucket.size)``, not ``(n, bucket.size)``.
On the ``train_step`` benchmark's 16x16 arm the ``n x P`` block was
177 MB of float64.  Both checks below fail if a refactor brings it back:
the block shapes, and the ``tracemalloc`` peak of a step (the first one
too, which allocates the blocks).
"""

from __future__ import annotations

import tracemalloc

import numpy as np

from repro.core.data_parallel import DataParallelTrainer
from repro.models.mlp import MLP, synthetic_classification
from repro.optim import LAMB

#: The ``train_step`` benchmark's model, global batch and 16x16 arm.
LAYER_SIZES = [64, 256, 256, 16]
GLOBAL_BATCH = 512
MESH = (16, 16)


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_16x16_step_holds_one_mesh_column_of_gradients():
    rng = np.random.default_rng(0)
    x, labels = synthetic_classification(
        rng, GLOBAL_BATCH, LAYER_SIZES[0], LAYER_SIZES[-1]
    )
    trainer = DataParallelTrainer(MLP(LAYER_SIZES), LAMB(0.02), *MESH)
    trainer.init(rng)
    n, dp_y = trainer.num_replicas, MESH[1]
    whole_block = n * sum(p.size for p in trainer.params.values()) * 8

    peaks = [_traced_peak(lambda: trainer.step(x, labels)) for _ in range(2)]

    assert [block.shape for block in trainer._grad_blocks] == [
        (dp_y, bucket.size) for bucket in trainer._plan.buckets
    ]
    assert max(peaks) < whole_block / 4, (peaks, whole_block)
