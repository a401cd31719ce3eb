"""LARS — Layerwise Adaptive Rate Scaling (You, Gitman & Ginsburg, 2017).

LARS scales each layer's learning rate by ``||w|| / (||g|| + wd*||w||)``,
which is what lets MLPerf ResNet-50 train at batch 65536 (Section 4.2).
The trust ratio needs full-tensor norms: :meth:`norm_stats` names the two
arrays whose partial sums of squares the sharded update all-reduces (two
scalars per layer instead of the whole gradient).
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule
from repro.refuse import non_negative, positive, proper_fraction


class LARS(Optimizer):
    """LARS with momentum, as used by the MLPerf ResNet-50 reference.

    Parameters named in ``skip_patterns`` (biases, batch-norm scales) fall
    back to plain momentum SGD without weight decay, matching the reference
    implementation.
    """

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        trust_coefficient: float = 0.001,
        epsilon: float = 1e-9,
        skip_patterns: tuple[str, ...] = ("bias", "beta", "gamma", "bn"),
    ) -> None:
        self.learning_rate = as_schedule(learning_rate)
        self.momentum = proper_fraction("momentum", momentum)
        self.weight_decay = non_negative("weight_decay", weight_decay)
        self.trust_coefficient = positive("trust_coefficient", trust_coefficient)
        self.epsilon = positive("epsilon", epsilon)
        self.skip_patterns = skip_patterns

    def _skip(self, name: str) -> bool:
        lowered = name.lower()
        return any(pat in lowered for pat in self.skip_patterns)

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("momentum",))

    def norm_stats(self, name, param, grad, state, step):
        p = param.astype(np.float64, copy=False)
        g = grad.astype(np.float64, copy=False)
        if self._skip(name):
            return {}, (p, g)
        return {"param_sq": p, "grad_sq": g}, (p, g)

    def apply(self, name, param, grad, state, step, stats, work):
        lr = self.learning_rate(step)
        p, g = work
        if self._skip(name):
            v = self.momentum * state["momentum"] + g
            new_p = p - lr * v
            return new_p.astype(param.dtype, copy=False), {"momentum": v}
        w_norm = float(np.sqrt(stats["param_sq"]))
        g_norm = float(np.sqrt(stats["grad_sq"]))
        if w_norm > 0 and g_norm > 0:
            trust = (
                self.trust_coefficient
                * w_norm
                / (g_norm + self.weight_decay * w_norm + self.epsilon)
            )
        else:
            trust = 1.0
        scaled_lr = lr * trust
        v = self.momentum * state["momentum"] + scaled_lr * (
            g + self.weight_decay * p
        )
        new_p = p - v
        return new_p.astype(param.dtype, copy=False), {"momentum": v}
