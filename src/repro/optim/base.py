"""Optimizer interface shared by the replicated and sharded update paths."""

from __future__ import annotations

import abc
from typing import Any, Mapping, Sequence

import numpy as np

#: A model's parameters / gradients: name -> array.
Params = dict[str, np.ndarray]
Grads = Mapping[str, np.ndarray]

#: Optimizer slot variables: name -> slot -> float64 array (same shape as the
#: param).
OptimizerState = dict[str, dict[str, np.ndarray]]


class Optimizer(abc.ABC):
    """Base class for stateful optimizers over named parameter dicts.

    Subclasses implement three methods:

    * :meth:`init_state` — allocate slot variables;
    * :meth:`norm_stats` — the elementwise pre-pass of one (range of a)
      layer: the arrays whose *full-tensor* L2 norms the update needs (none
      for plain SGD and Adam), and whatever :meth:`apply` reuses, so that
      every element is computed once;
    * :meth:`apply` — the elementwise update of that range, parameterized
      by the already-reduced norm scalars.

    :meth:`update_shards` states how the two combine — the trust-ratio rule
    of §3.2 — once; the convenience :meth:`update` runs the full
    replicated step as its one-shard case, and :meth:`update_window` the
    weight-update-sharded step over one fused bucket.
    """

    #: Whether :meth:`apply` does the same arithmetic on every element,
    #: whatever tensor it belongs to: no norm operands, no per-name rule,
    #: only scalars that depend on ``step``.  Such an optimizer updates a
    #: bucket's whole window in one :meth:`apply` call (see
    #: :meth:`update_window`); a layerwise one (LARS, LAMB) one tensor at
    #: a time.
    elementwise: bool = False

    @abc.abstractmethod
    def init_state(self, params: Params) -> OptimizerState:
        """Zero-initialized slot variables for every parameter."""

    @abc.abstractmethod
    def norm_stats(
        self, name: str, param: np.ndarray, grad: np.ndarray, state: dict[str, np.ndarray], step: int
    ) -> tuple[dict[str, np.ndarray], Any]:
        """Norm operands of one layer (or a range of it), and the reused work.

        Returns ``(operands, work)``.  ``operands`` maps each statistic the
        update needs to the float64 array, over the given range, whose *sum
        of squares* it is; :meth:`update_shards` sums those squares per
        device segment.  ``work`` is handed to :meth:`apply` unchanged.
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
        work: Any,
    ) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        """Elementwise update of one layer (or any range of it).

        ``stats`` holds the globally reduced sums of squares of the operands
        :meth:`norm_stats` returned, ``work`` its second value for this very
        range.  Returns the new parameter (range) and new state (range).
        Must be elementwise so it commutes with sharding — the invariant the
        WUS equivalence tests check.
        """

    def update_shards(
        self,
        name: str,
        shards: Sequence[tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]],
        step: int,
        replicated: bool = False,
        segments: Sequence[slice] = (slice(None),),
    ) -> list[tuple[np.ndarray, dict[str, np.ndarray]]]:
        """Update one layer held as ``(param, grad, state)`` shards.

        The LARS/LAMB trust-ratio rule: each shard's norm operands are
        squared and summed over its ``segments`` (slices of the shard's
        flattened range, one per device that holds a part of it) — in the
        caller's shard order, then segment order, so the float additions
        are reproducible; this is the tiny scalar all-reduce per layer of
        weight-update sharding — and each shard is then :meth:`apply`-ed
        with the full-tensor statistics.  A weight-update-sharded layer is
        one contiguous shard with one segment per device; a replicated
        update is one shard with one segment.  With ``replicated`` every
        holder has the *whole* tensor (a replicated tensor inside a
        model-parallel group), so the first holder's statistics are already
        global and are applied to all.  Returns one ``(new_param,
        new_state)`` per shard.
        """
        prepared = [self.norm_stats(name, p, g, s, step) for p, g, s in shards]
        stats: dict[str, float] = {}
        for operands, _ in prepared[:1] if replicated else prepared:
            for key, values in operands.items():
                for seg in segments:
                    part = values[seg]
                    stats[key] = stats.get(key, 0.0) + float(np.sum(part * part))
        return [
            self.apply(name, param, grad, state, step, stats, work)
            for (param, grad, state), (_, work) in zip(shards, prepared)
        ]

    def update_window(
        self,
        tensors: Sequence[tuple[str, slice, Sequence[slice]]],
        params: np.ndarray,
        grads: np.ndarray,
        slots: dict[str, np.ndarray],
        step: int,
        out: np.ndarray,
    ) -> None:
        """Update one fused bucket's flat window in place.

        ``params``, ``grads``, ``out`` and every array of ``slots`` are
        flat and bucket-ordered, one element per bucket element;
        ``tensors`` is the bucket's
        :meth:`~repro.runtime.bucket.GradientBucket.tensor_segments`: per
        tensor, its range of those arrays and its device segments.  The
        new parameters are written to ``out`` and the new slot values into
        the ``slots`` arrays.

        A layerwise optimizer runs :meth:`update_shards` once per tensor,
        its norms summed over the tensor's device segments.  An
        :attr:`elementwise` one makes a single :meth:`apply` call over the
        whole window, with ``name=None``, no statistics and no work — the
        very operations the per-tensor calls make, on the same elements,
        so the bits are the same.
        """
        if self.elementwise:
            new_params, new_state = self.apply(None, params, grads, slots, step, {}, None)
            out[...] = new_params
            for slot, values in new_state.items():
                slots[slot][...] = values
            return
        for name, span, segments in tensors:
            state = {slot: flat[span] for slot, flat in slots.items()}
            ((new_params, new_state),) = self.update_shards(
                name, [(params[span], grads[span], state)], step, segments=segments
            )
            out[span] = new_params
            for slot, values in new_state.items():
                state[slot][...] = values

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
