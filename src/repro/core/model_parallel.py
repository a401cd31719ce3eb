"""Feature-dimension model parallelism (Section 3.1) and hybrid training.

Where data parallelism runs out (fixed global batch, Transformer/SSD), the
paper shards the *feature* dimensions of dense layers over a tile of
X-adjacent cores, in the style of Shazeer et al.'s Mesh-TensorFlow, via
SPMD annotations.  For an MLP pair of layers this is the classic pattern:

* layer ``2i``   — weights split by **output** features (column sharding);
  each core computes its slice of the hidden activation locally;
* layer ``2i+1`` — weights split by **input** features (row sharding); each
  core computes a *partial* product, and an **all-reduce over the model
  group** restores the replicated activation ("black rings" of Figure 4).

The backward pass mirrors this with an all-reduce of the input-activation
gradient.  Weight gradients stay shard-local; with data parallelism on
top, each shard's gradients are summed across replicas on the *peer rings*
that hop over model-parallel neighbors (Figure 4, dotted blue) — which is
exactly what :class:`HybridParallelTrainer` executes.
"""

from __future__ import annotations

from time import perf_counter as _perf

import numpy as np

from repro.core.trainer import BaseTrainer, StepResult, _checked_grad_dtype_policy
from repro.models.layers import (
    dense_backward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from repro.models.mlp import MLP
from repro.optim.base import Optimizer, Params
from repro.refuse import count
from repro.runtime.collectives import ring_all_reduce


class FeatureShardedMLP:
    """An MLP with feature-sharded weights over ``mp_size`` model cores.

    Layers are sharded in column/row pairs; a trailing unpaired layer stays
    replicated.  Sharded parameter dicts use the same names as the wrapped
    :class:`~repro.models.mlp.MLP`, holding each device's shard.
    """

    def __init__(self, mlp: MLP, mp_size: int) -> None:
        count("mp_size", mp_size)
        self.mlp = mlp
        self.mp_size = mp_size
        self.num_layers = mlp.num_layers
        self.num_pairs = self.num_layers // 2
        for pair in range(self.num_pairs):
            hidden = mlp.layer_sizes[2 * pair + 1]
            if hidden % mp_size != 0:
                raise ValueError(
                    f"hidden size {hidden} of layer {2 * pair} not divisible "
                    f"by mp_size {mp_size}"
                )

    # --- sharding of parameter dicts -------------------------------------

    def _kind(self, layer: int) -> str:
        """'col', 'row', or 'replicated' for a layer index."""
        if layer < 2 * self.num_pairs:
            return "col" if layer % 2 == 0 else "row"
        return "replicated"

    def shard_params(self, params: Params) -> list[Params]:
        """Split full parameters into one shard dict per model core."""
        out: list[Params] = [dict() for _ in range(self.mp_size)]
        for layer in range(self.num_layers):
            w, b = params[f"w{layer}"], params[f"b{layer}"]
            kind = self._kind(layer)
            if kind == "col":
                w_shards = np.split(w, self.mp_size, axis=1)
                b_shards = np.split(b, self.mp_size)
            elif kind == "row":
                w_shards = np.split(w, self.mp_size, axis=0)
                b_shards = [b.copy() for _ in range(self.mp_size)]
            else:
                w_shards = [w.copy() for _ in range(self.mp_size)]
                b_shards = [b.copy() for _ in range(self.mp_size)]
            for k in range(self.mp_size):
                out[k][f"w{layer}"] = w_shards[k]
                out[k][f"b{layer}"] = b_shards[k]
        return out

    def gather_params(self, shards: list[Params]) -> Params:
        """Reassemble full parameters from per-core shards."""
        if len(shards) != self.mp_size:
            raise ValueError("wrong number of shards")
        full: Params = {}
        for layer in range(self.num_layers):
            kind = self._kind(layer)
            ws = [s[f"w{layer}"] for s in shards]
            bs = [s[f"b{layer}"] for s in shards]
            if kind == "col":
                full[f"w{layer}"] = np.concatenate(ws, axis=1)
                full[f"b{layer}"] = np.concatenate(bs)
            elif kind == "row":
                full[f"w{layer}"] = np.concatenate(ws, axis=0)
                full[f"b{layer}"] = bs[0]
            else:
                full[f"w{layer}"] = ws[0]
                full[f"b{layer}"] = bs[0]
        return full

    # --- sharded execution -------------------------------------------------

    def forward(
        self, shards: list[Params], x: np.ndarray, dtype_policy: str = "f64"
    ) -> np.ndarray:
        """Logits via sharded execution (returns the replicated result)."""
        logits, _ = self._forward_with_cache(shards, x, dtype_policy)
        return logits

    def _forward_with_cache(self, shards, x, dtype_policy):
        m = self.mp_size
        h = x.astype(self.mlp.dtype)
        cache: list[dict] = []
        layer = 0
        for _ in range(self.num_pairs):
            entry: dict = {"h_in": h}
            z1 = [h @ shards[k][f"w{layer}"] + shards[k][f"b{layer}"] for k in range(m)]
            a1 = [relu(z) for z in z1]
            entry["z1"], entry["a1"] = z1, a1
            partials = [a1[k] @ shards[k][f"w{layer + 1}"] for k in range(m)]
            # Forward all-reduce over the model group (black ring).
            z2 = ring_all_reduce(partials, dtype_policy)[0] + shards[0][f"b{layer + 1}"]
            entry["z2"] = z2
            is_last = layer + 1 == self.num_layers - 1
            h = z2 if is_last else relu(z2)
            cache.append(entry)
            layer += 2
        if layer < self.num_layers:  # trailing replicated layer
            entry = {"h_in": h}
            h = h @ shards[0][f"w{layer}"] + shards[0][f"b{layer}"]
            cache.append(entry)
        return h, cache

    def loss_and_grad(
        self,
        shards: list[Params],
        x: np.ndarray,
        labels: np.ndarray,
        dtype_policy: str = "f64",
    ) -> tuple[float, list[dict[str, np.ndarray]]]:
        """Loss and per-core sharded gradients for one micro-batch."""
        m = self.mp_size
        logits, cache = self._forward_with_cache(shards, x, dtype_policy)
        loss, dy = softmax_cross_entropy(logits, labels)
        grads: list[dict[str, np.ndarray]] = [dict() for _ in range(m)]
        layer = self.num_layers - 1
        if self.num_layers % 2 == 1:  # trailing replicated layer
            entry = cache[-1]
            dx, dw, db = dense_backward(entry["h_in"], shards[0][f"w{layer}"], dy)
            for k in range(m):
                grads[k][f"w{layer}"] = dw
                grads[k][f"b{layer}"] = db
            dy = dx
            layer -= 1
        for pair in reversed(range(self.num_pairs)):
            entry = cache[pair]
            l1, l2 = 2 * pair, 2 * pair + 1
            is_last = l2 == self.num_layers - 1
            dz2 = dy if is_last else relu_backward(entry["z2"], dy)
            db2 = dz2.sum(axis=0)
            dh_partials = []
            for k in range(m):
                a1_k = entry["a1"][k]
                dw2_k = a1_k.T @ dz2
                da1_k = dz2 @ shards[k][f"w{l2}"].T
                dz1_k = relu_backward(entry["z1"][k], da1_k)
                dw1_k = entry["h_in"].T @ dz1_k
                db1_k = dz1_k.sum(axis=0)
                grads[k][f"w{l2}"] = dw2_k
                grads[k][f"b{l2}"] = db2
                grads[k][f"w{l1}"] = dw1_k
                grads[k][f"b{l1}"] = db1_k
                dh_partials.append(dz1_k @ shards[k][f"w{l1}"].T)
            # Backward all-reduce over the model group.
            dy = ring_all_reduce(dh_partials, dtype_policy)[0]
        return loss, grads


class HybridParallelTrainer(BaseTrainer):
    """Data x model parallelism on a ``dp x mp`` logical device grid.

    Device ``(d, k)`` holds model shard ``k`` and processes replica ``d``'s
    micro-batch.  Per step:

    1. each replica row runs the sharded forward/backward (all-reduces
       inside the model group);
    2. each weight shard's gradients are summed across replicas — the peer
       reduction of Figure 4 — with a real ring collective;
    3. the optimizer updates each shard, combining shard-partial norms
       across the model group for LARS/LAMB trust ratios.
    """

    def __init__(
        self,
        model: MLP,
        optimizer: Optimizer,
        dp_size: int,
        mp_size: int,
        grad_dtype_policy: str = "f64",
    ) -> None:
        count("dp_size", dp_size)
        super().__init__(model, optimizer)
        self.dp_size = dp_size
        self.mp = FeatureShardedMLP(model, mp_size)
        self.grad_dtype_policy = _checked_grad_dtype_policy(grad_dtype_policy)
        self.shards: list[Params] | None = None  # one per model core
        self.shard_states: list[dict] | None = None

    @property
    def num_replicas(self) -> int:
        return self.dp_size

    @property
    def mp_size(self) -> int:
        return self.mp.mp_size

    @property
    def num_devices(self) -> int:
        return self.dp_size * self.mp_size

    def init(self, rng: np.random.Generator) -> None:
        full = self.model.init_params(rng)
        self.shards = self.mp.shard_params(full)
        self.shard_states = [self.optimizer.init_state(s) for s in self.shards]
        self.step_index = 0

    def full_params(self) -> Params:
        if self.shards is None:
            raise RuntimeError("call init() first")
        return self.mp.gather_params(self.shards)

    @property
    def _ready(self) -> bool:
        return self.shards is not None

    def _forward_backward(self, xs: np.ndarray, labels: np.ndarray):
        """Each replica row's loss and per-model-core gradients.

        The feature-sharded model has no stacked form, so this is the one
        trainer that still loops over its replicas.
        """
        losses, grads = [], []
        for xi, yi in zip(xs, labels):
            loss, shard_grads = self.mp.loss_and_grad(
                self.shards, xi, yi, self.grad_dtype_policy
            )
            losses.append(loss)
            grads.append(shard_grads)
        return losses, grads

    def step(self, x: np.ndarray, labels: np.ndarray) -> StepResult:
        """One step: peer reduction, then the model-group update."""
        dp = self.dp_size
        with self._step(x, labels) as run:
            # Peer reduction across replicas for every shard tensor;
            # run.grads is indexed [replica][model core].
            reduced: list[dict[str, np.ndarray]] = [dict() for _ in range(self.mp_size)]
            with run.phase("collective", "comm"):
                for k in range(self.mp_size):
                    for name in run.grads[0][k]:
                        t0 = _perf()
                        reduced[k][name] = ring_all_reduce(
                            [g[k][name] / dp for g in run.grads], self.grad_dtype_policy
                        )[0]
                        self._last_launches.append(
                            (reduced[k][name].nbytes, _perf() - t0)
                        )
            with run.phase("update", "update"):
                self._sharded_optimizer_step(reduced)
        return run.result

    def _sharded_optimizer_step(self, grads: list[dict[str, np.ndarray]]) -> None:
        """Update each shard, reducing norm partials across the model group."""
        for name in self.shards[0]:
            kind = self.mp._kind(int(name[1:]))
            # For replicated tensors every core holds the full tensor, so
            # core 0's stats are already global.
            replicated = kind == "replicated" or (kind == "row" and name.startswith("b"))
            updated = self.optimizer.update_shards(
                name,
                [
                    (shard[name], grad[name], state[name])
                    for shard, grad, state in zip(self.shards, grads, self.shard_states)
                ],
                self.step_index,
                replicated=replicated,
            )
            for k, (new_p, new_s) in enumerate(updated):
                self.shards[k][name] = new_p
                self.shard_states[k][name] = new_s
