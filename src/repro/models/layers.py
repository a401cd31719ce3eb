"""Numpy neural-network layers with explicit backward passes.

Everything is written against float64 by default so that parallelization
equivalence tests can demand tight tolerances: if a sharded execution
produces the same numbers as the replicated one, the only remaining error
source is summation order.
"""

from __future__ import annotations

import numpy as np


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None
) -> np.ndarray:
    """``y = x @ w (+ b)`` for a [batch, in] activation."""
    if x.ndim != 2 or w.ndim != 2:
        raise ValueError("dense_forward expects 2-D x and w")
    if x.shape[1] != w.shape[0]:
        raise ValueError(f"shape mismatch: x {x.shape} @ w {w.shape}")
    y = x @ w
    if b is not None:
        y = y + b
    return y


def dense_backward(
    x: np.ndarray, w: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a dense layer: returns (dx, dw, db)."""
    dx = dy @ w.T
    dw = x.T @ dy
    db = dy.sum(axis=0)
    return dx, dw, db


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits.

    ``labels`` are integer class indices of shape [batch].
    """
    if logits.ndim != 2:
        raise ValueError("logits must be [batch, classes]")
    batch = logits.shape[0]
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} != ({batch},)")
    probs = softmax(logits)
    eps = 1e-12
    picked = probs[np.arange(batch), labels]
    loss = float(-np.mean(np.log(picked + eps)))
    dlogits = probs.copy()
    dlogits[np.arange(batch), labels] -= 1.0
    dlogits /= batch
    return loss, dlogits
