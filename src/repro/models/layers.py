"""Numpy neural-network layers with explicit backward passes.

Everything is written against float64 by default so that parallelization
equivalence tests can demand tight tolerances: if a sharded execution
produces the same numbers as the replicated one, the only remaining error
source is summation order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray | None = None
) -> np.ndarray:
    """``y = x @ w (+ b)`` for a [..., batch, in] activation.

    Leading axes (a stack of replicas) run as one ``np.matmul`` over the
    stack, which makes the same per-slice GEMM call as the 2-D product: each
    slice of the result has the bits of the 2-D call on that slice.
    """
    if x.ndim < 2 or w.ndim != 2:
        raise ValueError("dense_forward expects x of [..., batch, in] and a 2-D w")
    if x.shape[-1] != w.shape[0]:
        raise ValueError(f"shape mismatch: x {x.shape} @ w {w.shape}")
    y = x @ w
    if b is not None:
        if b.dtype == y.dtype:
            y += b  # y + b, into the product's fresh buffer
        else:
            y = y + b
    return y


def dense_backward(
    x: np.ndarray,
    w: np.ndarray,
    dy: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of a dense layer: returns (dx, dw, db).

    ``dw`` and ``db`` are :func:`dense_param_grads` (which see for leading
    axes and ``out``); ``dx = dy @ w.T`` is what the layer below needs.
    """
    dw, db = dense_param_grads(x, dy, out)
    return dy @ w.T, dw, db


def dense_param_grads(
    x: np.ndarray,
    dy: np.ndarray,
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """A dense layer's parameter gradients (dw, db), without its ``dx``.

    Over leading axes the gradients stay per slice: ``dw`` is
    ``[..., in, out]`` and ``db`` ``[..., out]``, each slice the 2-D call's
    bits (per-slice GEMM; ``db`` adds the batch rows in the same order).
    ``out=(dw, db)`` writes them into those arrays instead of new ones.
    The first layer of a network calls this alone: nothing consumes its
    ``dx``.
    """
    dw_out, db_out = (None, None) if out is None else out
    dw = np.matmul(x.swapaxes(-1, -2), dy, out=dw_out)
    db = np.add.reduce(dy, axis=-2, out=db_out)  # np.sum's reduction
    return dw, db


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    return dy * (x > 0.0)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax over the last axis."""
    # The reductions ndarray.max/.sum make, without their dispatch.
    shifted = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    e /= np.add.reduce(e, axis=-1, keepdims=True)  # e / sum, in place
    return e


@lru_cache(maxsize=16)
def _unsigned(dtype: np.dtype) -> np.dtype:
    """The unsigned integer type of ``dtype``'s width and byte order."""
    return np.dtype(dtype.str.replace("i", "u"))


@lru_cache(maxsize=64)
def _row_starts(rows: int, classes: int) -> np.ndarray:
    """Flat offset of each of ``rows`` rows of ``classes`` values (read-only):
    a function of the batch shape alone, so a training loop builds it once."""
    starts = np.arange(rows) * classes
    starts.flags.writeable = False
    return starts


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy loss and gradient w.r.t. logits.

    ``logits`` are ``[..., batch, classes]`` and ``labels`` integer class
    indices ``[..., batch]`` in ``[0, classes)``; anything else raises
    ``ValueError`` (a negative index would otherwise pick a class from the
    end).  The mean runs over ``batch``: 2-D logits give a ``float``, leading
    axes a float64 array of the per-slice losses.
    """
    if logits.ndim < 2:
        raise ValueError("logits must be [..., batch, classes]")
    batch, classes = logits.shape[-2:]
    labels = np.asarray(labels)
    if labels.shape != logits.shape[:-1]:
        raise ValueError(f"labels shape {labels.shape} != {logits.shape[:-1]}")
    if labels.dtype.kind not in "iu":  # np.issubdtype(dtype, np.integer)
        raise ValueError(f"labels must be integer class indices, not {labels.dtype}")
    flat_labels = labels.reshape(-1)
    # One reduction: read as unsigned, a negative label exceeds every class.
    if flat_labels.size and (
        np.maximum.reduce(flat_labels.view(_unsigned(labels.dtype))) >= classes
    ):
        raise ValueError(
            f"labels must lie in [0, {classes}); got {labels.min()}..{labels.max()}"
        )
    # Each row's label as an index into the flat probabilities (in range:
    # checked above, so any integer type may be cast).
    picks = np.add(
        _row_starts(flat_labels.size, classes), flat_labels,
        dtype=np.intp, casting="unsafe",
    )
    probs = softmax(logits).reshape(-1)
    eps = 1e-12
    picked = probs[picks].reshape(labels.shape)  # a copy, worked on in place
    picked += eps
    # np.mean's own arithmetic (one add.reduce, one division), without its
    # dispatch: this runs on every training step.
    loss = -(np.add.reduce(np.log(picked, out=picked), axis=-1) / batch)
    dlogits = probs
    dlogits[picks] -= 1.0
    dlogits /= batch
    loss = float(loss) if logits.ndim == 2 else loss.astype(np.float64, copy=False)
    return loss, dlogits.reshape(logits.shape)
