"""A small trainable MLP classifier with hand-written gradients.

This is the workhorse of the functional parallelism tests: big enough to
have multiple layers with distinct shapes (so sharding/reassembly bugs show
up), small enough that hundreds of equivalence checks run in seconds.
"""

from __future__ import annotations

import numpy as np

from repro.models.layers import (
    dense_backward,
    dense_forward,
    relu,
    relu_backward,
    softmax_cross_entropy,
)
from repro.optim.base import Grads, Params


class MLP:
    """A fully connected ReLU network for classification.

    Parameters are stored as a flat dict ``{"w0": ..., "b0": ..., ...}``
    compatible with the optimizers and the parallel trainers.
    """

    def __init__(self, layer_sizes: list[int], dtype=np.float64) -> None:
        if len(layer_sizes) < 2:
            raise ValueError("need at least input and output sizes")
        if any(s < 1 for s in layer_sizes):
            raise ValueError("layer sizes must be positive")
        self.layer_sizes = list(layer_sizes)
        self.dtype = dtype

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

    def loss_and_grad(
        self, params: Params, x: np.ndarray, labels: np.ndarray
    ) -> tuple[float, Grads]:
        """Mean cross-entropy loss and gradients for a mini-batch."""
        activations = [x.astype(self.dtype)]
        pre_relu: list[np.ndarray] = []
        h = activations[0]
        for i in range(self.num_layers):
            z = dense_forward(h, params[f"w{i}"], params[f"b{i}"])
            if i + 1 < self.num_layers:
                pre_relu.append(z)
                h = relu(z)
            else:
                h = z
            activations.append(h)
        loss, dy = softmax_cross_entropy(h, labels)
        grads: dict[str, np.ndarray] = {}
        for i in reversed(range(self.num_layers)):
            x_in = activations[i]
            dx, dw, db = dense_backward(x_in, params[f"w{i}"], dy)
            grads[f"w{i}"] = dw
            grads[f"b{i}"] = db
            if i > 0:
                dy = relu_backward(pre_relu[i - 1], dx)
        return loss, grads

    def predict(self, params: Params, x: np.ndarray) -> np.ndarray:
        """Predicted class indices."""
        return np.argmax(self.forward(params, x), axis=-1)

    def accuracy(self, params: Params, x: np.ndarray, labels: np.ndarray) -> float:
        return float(np.mean(self.predict(params, x) == labels))


def synthetic_classification(
    rng: np.random.Generator,
    num_samples: int,
    num_features: int,
    num_classes: int,
    noise: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """A learnable synthetic dataset: noisy linear class prototypes."""
    if num_samples < 1 or num_features < 1 or num_classes < 2:
        raise ValueError("invalid dataset dims")
    prototypes = rng.standard_normal((num_classes, num_features))
    labels = rng.integers(0, num_classes, size=num_samples)
    x = prototypes[labels] + noise * rng.standard_normal((num_samples, num_features))
    return x, labels
