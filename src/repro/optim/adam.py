"""Adam (Kingma & Ba) — the Transformer benchmark's optimizer."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule


class Adam(Optimizer):
    """Standard Adam with bias correction.

    Fully elementwise (no trust-ratio norms), so it shards trivially under
    weight-update sharding.
    """

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        beta1: float = 0.9,
        beta2: float = 0.98,
        epsilon: float = 1e-9,
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = as_schedule(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("m", "v"))

    def norm_stats(self, name, param, grad, state, step):
        return {}, None

    def apply(self, name, param, grad, state, step, stats, work):
        lr = self.learning_rate(step)
        g = grad.astype(np.float64, copy=False)
        m = self.beta1 * state["m"] + (1.0 - self.beta1) * g
        v = self.beta2 * state["v"] + (1.0 - self.beta2) * g * g
        t = step + 1
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        new_p = param.astype(np.float64, copy=False) - lr * m_hat / (
            np.sqrt(v_hat) + self.epsilon
        )
        return new_p.astype(param.dtype, copy=False), {"m": m, "v": v}
