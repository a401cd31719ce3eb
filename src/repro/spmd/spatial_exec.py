"""Functional spatial partitioning: conv2d over H-sharded activations.

This executes Section 3.1's spatial partitioning for real on numpy: an
NHWC activation is split along the height dimension over ``k`` virtual
cores; before each convolution the shards exchange **halo rows** with their
spatial neighbors (actual array slices moving between shards, exactly the
communication XLA's SPMD partitioner inserts); each core then convolves its
padded tile locally.  The tests check bit-equality with the unsharded
convolution, through multi-layer stacks.
"""

from __future__ import annotations

import numpy as np


def conv2d_direct(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Reference NHWC stride-1 convolution with SAME padding (odd kernels).

    Small and clear rather than fast — it is the ground truth the sharded
    execution is checked against.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ValueError("expected NHWC x and KKIO w")
    kh, kw, cin, cout = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernels must be odd for SAME padding")
    if x.shape[3] != cin:
        raise ValueError(f"channel mismatch: {x.shape[3]} vs {cin}")
    b, h, wd, _ = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    out = np.zeros((b, h, wd, cout), dtype=np.result_type(x, w))
    for i in range(kh):
        for j in range(kw):
            patch = padded[:, i:i + h, j:j + wd, :]
            out += np.einsum("bhwc,co->bhwo", patch, w[i, j])
    return out


def shard_height(x: np.ndarray, k: int) -> list[np.ndarray]:
    """Split an NHWC activation into k height shards (XLA ceil/floor split)."""
    if x.ndim != 4:
        raise ValueError("expected NHWC activations")
    h = x.shape[1]
    if k < 1 or k > h:
        raise ValueError(f"cannot split {h} rows over {k} shards")
    base, extra = divmod(h, k)
    shards = []
    row = 0
    for i in range(k):
        rows = base + (1 if i < extra else 0)
        shards.append(x[:, row:row + rows])
        row += rows
    return shards


def unshard_height(shards: list[np.ndarray]) -> np.ndarray:
    """Concatenate height shards back into one activation."""
    if not shards:
        raise ValueError("no shards")
    return np.concatenate(shards, axis=1)


def halo_exchange(
    shards: list[np.ndarray], halo: int
) -> tuple[list[np.ndarray], float]:
    """Exchange ``halo`` boundary rows between neighboring shards.

    Returns per-shard tiles padded with the neighbors' rows (edge shards
    get zero padding on their outer side, matching SAME conv padding) and
    the total bytes that crossed shard boundaries.
    """
    if halo < 0:
        raise ValueError("halo must be non-negative")
    k = len(shards)
    if k == 0:
        raise ValueError("no shards")
    if halo == 0:
        return list(shards), 0.0
    padded = []
    moved = 0.0
    for i, tile in enumerate(shards):
        b, rows, w, c = tile.shape
        if i > 0:
            above = shards[i - 1][:, -halo:]
            moved += above.nbytes
        else:
            above = np.zeros((b, halo, w, c), dtype=tile.dtype)
        if i + 1 < k:
            below = shards[i + 1][:, :halo]
            moved += below.nbytes
        else:
            below = np.zeros((b, halo, w, c), dtype=tile.dtype)
        padded.append(np.concatenate([above, tile, below], axis=1))
    return padded, moved


def spatial_conv2d(
    shards: list[np.ndarray], w: np.ndarray
) -> tuple[list[np.ndarray], float]:
    """Convolve H-sharded activations with halo exchange.

    Each core receives its neighbors' ``(kh-1)/2`` rows, convolves its
    padded tile with VALID semantics along H (the halo supplies the
    padding) and SAME along W.  Returns output shards and halo bytes moved.
    """
    kh, kw, cin, cout = w.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ValueError("kernels must be odd")
    halo = kh // 2
    padded, moved = halo_exchange(shards, halo)
    outs = []
    pw = kw // 2
    for tile in padded:
        b, rows, wd, _ = tile.shape
        out_rows = rows - 2 * halo
        wide = np.pad(tile, ((0, 0), (0, 0), (pw, pw), (0, 0)))
        out = np.zeros((b, out_rows, wd, cout), dtype=np.result_type(tile, w))
        for i in range(kh):
            for j in range(kw):
                patch = wide[:, i:i + out_rows, j:j + wd, :]
                out += np.einsum("bhwc,co->bhwo", patch, w[i, j])
        outs.append(out)
    return outs, moved


def spatial_conv_stack(
    x: np.ndarray,
    weights: list[np.ndarray],
    k: int,
    *,
    relu_between: bool = True,
) -> tuple[np.ndarray, float]:
    """Run a stack of convolutions spatially partitioned over k cores.

    Shards once, halo-exchanges before every layer (as the SPMD partitioner
    schedules it), and reassembles at the end.  Returns the full output and
    total halo traffic.
    """
    shards = shard_height(x, k)
    total_moved = 0.0
    for layer_index, w in enumerate(weights):
        shards, moved = spatial_conv2d(shards, w)
        total_moved += moved
        if relu_between and layer_index + 1 < len(weights):
            shards = [np.maximum(s, 0.0) for s in shards]
    return unshard_height(shards), total_moved
