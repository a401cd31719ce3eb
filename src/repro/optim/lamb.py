"""LAMB — Layerwise Adaptive Moments for Batch training (You et al., 2019).

LAMB is the optimizer that lets MLPerf BERT scale to 4096-chip data
parallelism (Section 4.1).  It is also the motivating example for
weight-update sharding: the paper measured its update at ~18% of the BERT
step time on 512 chips when executed replicated (Section 3.2).  The trust
ratio ``||w|| / ||r||`` requires full-tensor norms of both the weights and
the Adam-normalized update, exposed through :meth:`norm_stats` as two
partial sums of squares (``r`` is elementwise given the moments, so the
partial norm of ``r`` is computable shard-locally).
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule


class LAMB(Optimizer):
    """LAMB as specified in the BERT-in-76-minutes paper."""

    def __init__(
        self,
        learning_rate: float | LRSchedule,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-6,
        weight_decay: float = 0.01,
        skip_patterns: tuple[str, ...] = ("bias", "beta", "gamma", "layernorm", "ln"),
    ) -> None:
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("betas must be in [0, 1)")
        self.learning_rate = as_schedule(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.weight_decay = weight_decay
        self.skip_patterns = skip_patterns

    def _decay(self, name: str) -> bool:
        lowered = name.lower()
        return not any(pat in lowered for pat in self.skip_patterns)

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("m", "v"))

    def _normalized_update(self, name, param, grad, state, step):
        """New moments and the Adam-normalized update r (all elementwise)."""
        g = grad.astype(np.float64)
        p = param.astype(np.float64)
        m = self.beta1 * state["m"] + (1.0 - self.beta1) * g
        v = self.beta2 * state["v"] + (1.0 - self.beta2) * g * g
        # Bias correction (step is 0-based).
        t = step + 1
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        r = m_hat / (np.sqrt(v_hat) + self.epsilon)
        if self._decay(name):
            r = r + self.weight_decay * p
        return m, v, r

    def norm_stats(self, name, param, grad, state, step):
        p = param.astype(np.float64)
        _, _, r = self._normalized_update(name, param, grad, state, step)
        return {
            "param_sq": float(np.sum(p * p)),
            "update_sq": float(np.sum(r * r)),
        }

    def apply(self, name, param, grad, state, step, stats):
        lr = self.learning_rate(step)
        m, v, r = self._normalized_update(name, param, grad, state, step)
        w_norm = float(np.sqrt(stats["param_sq"]))
        r_norm = float(np.sqrt(stats["update_sq"]))
        if w_norm > 0 and r_norm > 0:
            trust = w_norm / r_norm
        else:
            trust = 1.0
        new_p = param.astype(np.float64) - lr * trust * r
        return new_p.astype(param.dtype), {"m": m, "v": v}
