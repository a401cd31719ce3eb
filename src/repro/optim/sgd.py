"""SGD with momentum (the baseline update for small-batch training)."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule
from repro.refuse import non_negative, proper_fraction


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
        self.learning_rate = as_schedule(learning_rate)
        self.momentum = proper_fraction("momentum", momentum)
        self.weight_decay = non_negative("weight_decay", weight_decay)

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
