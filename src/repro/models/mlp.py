"""A small trainable MLP classifier with hand-written gradients.

This is the workhorse of the functional parallelism tests: big enough to
have multiple layers with distinct shapes (so sharding/reassembly bugs show
up), small enough that hundreds of equivalence checks run in seconds.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.models.layers import (
    dense_backward,
    dense_param_grads,
    dense_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from repro.optim.base import Grads, Params
from repro.refuse import count


class MLP:
    """A fully connected ReLU network for classification.

    Parameters are stored as a flat dict ``{"w0": ..., "b0": ..., ...}``
    compatible with the optimizers and the parallel trainers.
    """

    def __init__(self, layer_sizes: list[int], dtype=np.float64) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        self.layer_sizes = [count("layer_sizes", s) for s in layer_sizes]
        self.dtype = dtype
        #: ``(weight, bias)`` names of each layer, input layer first.
        self._names = tuple((f"w{i}", f"b{i}") for i in range(len(layer_sizes) - 1))

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1

    def init_params(self, rng: np.random.Generator) -> Params:
        """He-initialized weights, zero biases."""
        params: Params = {}
        for i, (fan_in, fan_out) in enumerate(
            zip(self.layer_sizes, self.layer_sizes[1:])
        ):
            scale = np.sqrt(2.0 / fan_in)
            params[f"w{i}"] = (
                rng.standard_normal((fan_in, fan_out)) * scale
            ).astype(self.dtype)
            params[f"b{i}"] = np.zeros(fan_out, dtype=self.dtype)
        return params

    def forward(self, params: Params, x: np.ndarray) -> np.ndarray:
        """Logits for a [batch, features] input."""
        h = x.astype(self.dtype)
        for i in range(self.num_layers):
            h = dense_forward(h, params[f"w{i}"], params[f"b{i}"])
            if i + 1 < self.num_layers:
                h = relu(h)
        return h

    @property
    def grad_names(self) -> tuple[str, ...]:
        """Parameter names in the order the backward pass produces them."""
        return tuple(
            name for i in reversed(range(self.num_layers)) for name in (f"w{i}", f"b{i}")
        )

    def loss_and_grad(
        self,
        params: Params,
        x: np.ndarray,
        labels: np.ndarray,
        out: Mapping[str, np.ndarray] | None = None,
    ) -> tuple[float | np.ndarray, Grads]:
        """Mean cross-entropy loss and gradients for a mini-batch.

        ``x`` is ``[batch, features]`` with ``labels`` ``[batch]``, or a
        stack of replicas ``[n, batch, features]`` with ``labels``
        ``[n, batch]``: then the n per-replica losses come back as a float64
        array and each gradient as ``[n, *shape]``.  Row ``r`` of a stacked
        result has exactly the bits of the 2-D call on replica ``r``
        (``np.matmul`` over a stack makes the same per-slice GEMM call, and
        the reductions add in the same order).

        ``out`` maps every parameter name to an array of the gradient's
        (stacked) shape and this model's dtype — typically a view of a
        collective's gradient block — that receives the gradient in place;
        the returned gradients are then those arrays.  Gradients come back
        in :attr:`grad_names` order.
        """
        activations = [x.astype(self.dtype, copy=False)]  # only ever read
        pre_relu: list[np.ndarray] = []
        h = activations[0]
        last = len(self._names) - 1
        for i, (w, b) in enumerate(self._names):
            z = dense_forward(h, params[w], params[b])
            if i < last:
                pre_relu.append(z)
                h = relu(z)
            else:
                h = z
            activations.append(h)
        loss, dy = softmax_cross_entropy(h, labels)
        grads: dict[str, np.ndarray] = {}
        for i in range(last, -1, -1):
            w, b = self._names[i]
            into = None if out is None else (out[w], out[b])
            if i == 0:  # the input layer's dx would feed nothing
                grads[w], grads[b] = dense_param_grads(activations[i], dy, into)
            else:
                dx, grads[w], grads[b] = dense_backward(
                    activations[i], params[w], dy, into
                )
                dy = relu_backward(pre_relu[i - 1], dx)
        return loss, grads

    def predict(self, params: Params, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(params, x), axis=-1)


def synthetic_classification(
    rng: np.random.Generator,
    num_samples: int,
    num_features: int,
    num_classes: int,
    noise: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """A learnable synthetic dataset: noisy linear class prototypes."""
    count("num_samples", num_samples)
    count("num_features", num_features)
    count("num_classes", num_classes, minimum=2)
    prototypes = rng.standard_normal((num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    x = prototypes[labels] + noise * rng.standard_normal((num_samples, num_features))
    return x, labels
