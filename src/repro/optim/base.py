"""Optimizer interface shared by the replicated and sharded update paths."""

from __future__ import annotations

import abc
from typing import Mapping, Sequence

import numpy as np

#: A model's parameters / gradients: name -> array.
Params = dict[str, np.ndarray]
Grads = Mapping[str, np.ndarray]

#: Optimizer slot variables: name -> slot -> array (same shape as the param).
OptimizerState = dict[str, dict[str, np.ndarray]]


class Optimizer(abc.ABC):
    """Base class for stateful optimizers over named parameter dicts.

    Subclasses implement three methods:

    * :meth:`init_state` — allocate slot variables;
    * :meth:`norm_stats` — the per-layer scalars that require *global*
      tensor norms (empty for plain SGD); given a parameter/gradient
      *shard*, partial squared norms are returned, which the sharded update
      path sums across devices before calling :meth:`apply`;
    * :meth:`apply` — the elementwise update of one (shard of a) layer,
      parameterized by the already-reduced norm scalars.

    :meth:`update_shards` states how the two combine — the trust-ratio rule
    of §3.2 — once; the convenience :meth:`update` runs the full
    replicated step as its one-shard case.
    """

    @abc.abstractmethod
    def init_state(self, params: Params) -> OptimizerState:
        """Zero-initialized slot variables for every parameter."""

    @abc.abstractmethod
    def norm_stats(
        self, name: str, param: np.ndarray, grad: np.ndarray, state: dict[str, np.ndarray], step: int
    ) -> dict[str, float]:
        """Partial (shard-local) squared-norm statistics for one layer.

        Keys are stat names; values are *sums of squares* (or other
        associative partials) over the given shard, so that summing the
        dicts across shards yields the full-tensor statistics.
        """

    @abc.abstractmethod
    def apply(
        self,
        name: str,
        param: np.ndarray,
        grad: np.ndarray,
        state: dict[str, np.ndarray],
        step: int,
        stats: dict[str, float],
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Elementwise update of one layer (or any shard of it).

        ``stats`` must contain the globally reduced values of the keys
        produced by :meth:`norm_stats`.  Returns the new parameter (shard)
        and new state (shard).  Must be elementwise so it commutes with
        sharding — the invariant the WUS equivalence tests check.
        """

    def update_shards(
        self,
        name: str,
        shards: Sequence[tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]],
        step: int,
        replicated: bool = False,
    ) -> list[tuple[np.ndarray, dict[str, np.ndarray]]]:
        """Update one layer held as ``(param, grad, state)`` shards.

        The LARS/LAMB trust-ratio rule: every shard's partial
        :meth:`norm_stats` are summed — in the caller's shard order, so the
        float additions are reproducible; this is the tiny scalar
        all-reduce per layer of weight-update sharding — and each shard is
        then :meth:`apply`-ed with the full-tensor statistics.  With
        ``replicated`` every holder has the *whole* tensor (a replicated
        tensor inside a model-parallel group), so the first holder's
        statistics are already global and are applied to all.  Returns one
        ``(new_param, new_state)`` per shard.
        """
        stats: dict[str, float] = {}
        for param, grad, state in shards[:1] if replicated else shards:
            for key, value in self.norm_stats(name, param, grad, state, step).items():
                stats[key] = stats.get(key, 0.0) + value
        return [
            self.apply(name, param, grad, state, step, stats)
            for param, grad, state in shards
        ]

    def update(
        self, params: Params, grads: Grads, state: OptimizerState, step: int
    ) -> tuple[Params, OptimizerState]:
        """Full replicated update of every layer."""
        new_params: Params = {}
        new_state: OptimizerState = {}
        for name, p in params.items():
            g = np.asarray(grads[name])
            if g.shape != p.shape:
                raise ValueError(
                    f"gradient shape {g.shape} != param shape {p.shape} for {name!r}"
                )
            new_params[name], new_state[name] = self.update_shards(
                name, [(p, g, state[name])], step
            )[0]
        return new_params, new_state

    @staticmethod
    def _zeros_like(params: Params, slots: tuple[str, ...]) -> OptimizerState:
        return {
            name: {slot: np.zeros_like(p, dtype=np.float64) for slot in slots}
            for name, p in params.items()
        }
