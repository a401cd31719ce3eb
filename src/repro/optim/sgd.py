"""SGD with momentum (the baseline update for small-batch training)."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule


class SGDMomentum(Optimizer):
    """Heavy-ball SGD: ``v = m*v + g + wd*p``; ``p -= lr * v``.

    Fully elementwise, so it shards trivially (``norm_stats`` is empty),
    one whole bucket window at a time.
    """

    elementwise = True

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ) -> None:
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.learning_rate = as_schedule(learning_rate)
        self.momentum = momentum
        self.weight_decay = weight_decay

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("momentum",))

    def norm_stats(self, name, param, grad, state, step):
        return {}, None

    def apply(self, name, param, grad, state, step, stats, work):
        lr = self.learning_rate(step)
        g = grad.astype(np.float64, copy=False)
        if self.weight_decay:
            g = g + self.weight_decay * param
        # v = m * v + g and p - lr * v, each operation in the order written.
        v = self.momentum * state["momentum"]
        v += g
        delta = lr * v
        new_param = np.subtract(param, delta, out=delta)
        return new_param.astype(param.dtype, copy=False), {"momentum": v}
