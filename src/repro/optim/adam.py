"""Adam (Kingma & Ba) — the Transformer benchmark's optimizer."""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule
from repro.refuse import positive, proper_fraction


class Adam(Optimizer):
    """Standard Adam with bias correction.

    Fully elementwise (no trust-ratio norms), so it shards trivially under
    weight-update sharding, one whole bucket window at a time.
    """

    elementwise = True

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        beta1: float = 0.9,
        beta2: float = 0.98,
        epsilon: float = 1e-9,
    ) -> None:
        self.learning_rate = as_schedule(learning_rate)
        self.beta1 = proper_fraction("beta1", beta1)
        self.beta2 = proper_fraction("beta2", beta2)
        self.epsilon = positive("epsilon", epsilon)

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("m", "v"))

    def norm_stats(self, name, param, grad, state, step):
        return {}, None

    def apply(self, name, param, grad, state, step, stats, work):
        lr = self.learning_rate(step)
        b1, b2 = self.beta1, self.beta2
        g = grad.astype(np.float64, copy=False)
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g * g, each
        # operation in the order written, the temporaries reused in place.
        m = b1 * state["m"]
        m += (1.0 - b1) * g
        v = (1.0 - b2) * g
        v *= g
        np.add(b2 * state["v"], v, out=v)
        t = step + 1
        # p - lr * m_hat / (sqrt(v_hat) + epsilon), likewise.
        delta = m / (1.0 - b1**t)  # m_hat
        np.multiply(lr, delta, out=delta)
        denom = v / (1.0 - b2**t)  # v_hat
        np.sqrt(denom, out=denom)
        denom += self.epsilon
        delta /= denom
        new_p = np.subtract(param.astype(np.float64, copy=False), delta, out=delta)
        return new_p.astype(param.dtype, copy=False), {"m": m, "v": v}
