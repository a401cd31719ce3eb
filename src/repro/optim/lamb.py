"""LAMB — Layerwise Adaptive Moments for Batch training (You et al., 2019).

LAMB is the optimizer that lets MLPerf BERT scale to 4096-chip data
parallelism (Section 4.1).  It is also the motivating example for
weight-update sharding: the paper measured its update at ~18% of the BERT
step time on 512 chips when executed replicated (Section 3.2).  The trust
ratio ``||w|| / ||r||`` requires full-tensor norms of both the weights and
the Adam-normalized update, exposed through :meth:`norm_stats` as the two
arrays whose squares the update sums (``r`` is elementwise given the
moments, so the partial norm of ``r`` is computable shard-locally).
"""

from __future__ import annotations

import numpy as np

from repro.optim.base import Optimizer, OptimizerState, Params
from repro.optim.schedules import LRSchedule, as_schedule
from repro.refuse import non_negative, positive, proper_fraction


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
        self.learning_rate = as_schedule(learning_rate)
        self.beta1 = proper_fraction("beta1", beta1)
        self.beta2 = proper_fraction("beta2", beta2)
        self.epsilon = positive("epsilon", epsilon)
        self.weight_decay = non_negative("weight_decay", weight_decay)
        self.skip_patterns = skip_patterns

    def _decay(self, name: str) -> bool:
        lowered = name.lower()
        return not any(pat in lowered for pat in self.skip_patterns)

    def init_state(self, params: Params) -> OptimizerState:
        return self._zeros_like(params, ("m", "v"))

    def norm_stats(self, name, param, grad, state, step):
        """The weights and the Adam-normalized update ``r``, each element once.

        ``r`` is elementwise given the new moments, so its norm's partial
        sums are computable on any range; the moments and ``r`` are what
        :meth:`apply` reuses.
        """
        g = grad.astype(np.float64, copy=False)
        p = param.astype(np.float64, copy=False)
        m = self.beta1 * state["m"] + (1.0 - self.beta1) * g
        v = self.beta2 * state["v"] + (1.0 - self.beta2) * g * g
        # Bias correction (step is 0-based).
        t = step + 1
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        r = m_hat / (np.sqrt(v_hat) + self.epsilon)
        if self._decay(name):
            r = r + self.weight_decay * p
        return {"param_sq": p, "update_sq": r}, (p, m, v, r)

    def apply(self, name, param, grad, state, step, stats, work):
        lr = self.learning_rate(step)
        p, m, v, r = work
        w_norm = float(np.sqrt(stats["param_sq"]))
        r_norm = float(np.sqrt(stats["update_sq"]))
        if w_norm > 0 and r_norm > 0:
            trust = w_norm / r_norm
        else:
            trust = 1.0
        new_p = p - lr * trust * r
        return new_p.astype(param.dtype, copy=False), {"m": m, "v": v}
