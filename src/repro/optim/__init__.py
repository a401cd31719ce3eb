"""Optimizers and learning-rate schedules used by the MLPerf v0.7 models.

The paper's large-batch scaling hinges on layerwise-adaptive optimizers:
LARS for ResNet-50 (batch 65536) and LAMB for BERT.  Both compute per-layer
trust ratios from *full-tensor* norms — the exact property that makes
weight-update sharding (Section 3.2) non-trivial: a device holding only a
shard of a layer must combine partial norms with its peers before it can
apply its shard of the update.  Every optimizer here therefore exposes both
a replicated ``update`` and the shard-wise pieces (:meth:`partial_norms` /
:meth:`apply`) that the sharded trainer composes with collectives.
"""

from repro.optim.base import Optimizer, OptimizerState, Params, Grads
from repro.optim.sgd import SGDMomentum
from repro.optim.lars import LARS
from repro.optim.lamb import LAMB
from repro.optim.adam import Adam
from repro.optim.schedules import (
    LRSchedule,
    ConstantSchedule,
    LinearWarmupPolyDecay,
)

__all__ = [
    "Optimizer",
    "OptimizerState",
    "Params",
    "Grads",
    "SGDMomentum",
    "LARS",
    "LAMB",
    "Adam",
    "LRSchedule",
    "ConstantSchedule",
    "LinearWarmupPolyDecay",
]
