"""Distributed batch normalization (Section 4.2).

Plain data-parallel batch norm computes statistics over each replica's
micro-batch; at 16 examples/chip the statistics get noisy and ResNet-50's
convergence degrades.  The paper (following the MLPerf reference practice)
uses *distributed* batch norm: replicas all-reduce their batch moments over
a normalization **group** before normalizing, trading a small collective
for large-batch-equivalent statistics.

Everything here executes functionally on numpy shards, with the moments
moved by the real ring collective; the tests check that a full-mesh group
is bit-equivalent to single-device batch norm over the concatenated batch,
and that group size interpolates between local and global statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.comm.cost import ring_all_reduce_time
from repro.runtime.collectives import ring_all_reduce


@dataclass(frozen=True)
class BatchNormResult:
    """Per-replica normalized activations plus the group moments used."""

    outputs: list[np.ndarray]
    group_mean: list[np.ndarray]
    group_var: list[np.ndarray]


def local_batch_norm(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> np.ndarray:
    """Batch norm over one replica's [batch, features] activations."""
    if x.ndim != 2:
        raise ValueError("expected [batch, features] activations")
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    return gamma * (x - mean) / np.sqrt(var + eps) + beta


def distributed_batch_norm(
    shards: list[np.ndarray],
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    group_size: int | None = None,
    eps: float = 1e-5,
) -> BatchNormResult:
    """Batch norm with moments all-reduced over groups of replicas.

    ``shards[i]`` is replica ``i``'s micro-batch activations
    ([batch, features], equal sizes).  ``group_size`` divides the replica
    count; ``None`` means one global group (full-batch statistics).  The
    group reduction moves ``(sum, sum_sq, count)`` — the associative
    moments — over a real ring all-reduce.
    """
    n = len(shards)
    if n == 0:
        raise ValueError("need at least one replica")
    feat = shards[0].shape[1]
    for s in shards:
        if s.ndim != 2 or s.shape != shards[0].shape:
            raise ValueError("all shards must share one [batch, features] shape")
    if group_size is None:
        group_size = n
    if group_size < 1 or n % group_size != 0:
        raise ValueError(f"group_size {group_size} must divide {n} replicas")

    outputs: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    means: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    variances: list[np.ndarray] = [None] * n  # type: ignore[list-item]
    for g0 in range(0, n, group_size):
        group = list(range(g0, g0 + group_size))
        # Each member contributes (sum, sum of squares, count).
        moments = [
            np.concatenate([
                shards[i].sum(axis=0),
                (shards[i] ** 2).sum(axis=0),
                [float(shards[i].shape[0])],
            ])
            for i in group
        ]
        reduced = ring_all_reduce(moments, "f64")
        for idx, i in enumerate(group):
            total = reduced[idx]
            s, ss, count = total[:feat], total[feat:2 * feat], total[-1]
            mean = s / count
            var = ss / count - mean**2
            outputs[i] = gamma * (shards[i] - mean) / np.sqrt(var + eps) + beta
            means[i] = mean
            variances[i] = var
    return BatchNormResult(outputs=outputs, group_mean=means, group_var=variances)


def batch_norm_group_cost(
    num_features: int,
    group_size: int,
    link_bandwidth: float,
    link_latency: float,
) -> float:
    """Per-layer time of the distributed-BN moment all-reduce.

    The payload is tiny (2 x features + 1 floats), so this is latency-bound
    — which is why the technique is nearly free on the TPU network.
    """
    if group_size <= 1:
        return 0.0
    payload = (2 * num_features + 1) * 4.0
    return ring_all_reduce_time(
        group_size, payload, link_bandwidth, link_latency, closed=False
    )
