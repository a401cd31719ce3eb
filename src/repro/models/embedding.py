"""DLRM embedding tables: partitioning and the interaction-masking trick.

Section 4.6's systems work, executable at small scale:

* **Table partitioning** — the Criteo embedding tables (~96 GB in fp32) do
  not fit one TPU-v3 chip's 32 GB HBM, so large tables are row-sharded
  across chips while small ones are replicated.
  :func:`plan_embedding_placement` makes that decision under a real memory
  budget, and :class:`ShardedEmbedding` executes sharded lookups
  functionally (computing the all-to-all bytes a real system would move).
* **Interaction masking** — DLRM's feature self-interaction takes the
  lower triangle of a pairwise-dot matrix; the reference uses a *gather*
  to drop the redundant upper triangle.  Gathers are slow on TPU, so the
  paper instead zero-masks the redundant entries and initializes the
  downstream fully connected layer to ignore them.
  :func:`interaction_gather` / :func:`interaction_masked` implement both;
  :func:`expand_weights_for_mask` builds the equivalent FC weights, and the
  tests check the two paths produce identical logits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.refuse import count


@dataclass(frozen=True)
class EmbeddingTableSpec:
    """One categorical feature's embedding table."""

    name: str
    rows: int
    dim: int
    dtype_bytes: int = 4

    def __post_init__(self) -> None:
        count("rows", self.rows)
        count("dim", self.dim)

    @property
    def bytes(self) -> float:
        return float(self.rows) * self.dim * self.dtype_bytes


@dataclass(frozen=True)
class EmbeddingPlacement:
    """Where each table lives: replicated everywhere or row-sharded."""

    replicated: tuple[EmbeddingTableSpec, ...]
    sharded: tuple[EmbeddingTableSpec, ...]
    num_chips: int

    def per_chip_bytes(self) -> float:
        rep = sum(t.bytes for t in self.replicated)
        shard = sum(t.bytes for t in self.sharded) / self.num_chips
        return rep + shard

    def fits(self, hbm_bytes: float, model_budget_fraction: float = 0.5) -> bool:
        """Whether the plan fits the per-chip HBM budget for embeddings."""
        return self.per_chip_bytes() <= hbm_bytes * model_budget_fraction


def plan_embedding_placement(
    tables: list[EmbeddingTableSpec],
    num_chips: int,
    hbm_bytes: float,
    *,
    replicate_threshold_bytes: float = 64 * 2**20,
    model_budget_fraction: float = 0.5,
) -> EmbeddingPlacement:
    """Replicate small tables, shard large ones (the paper's policy).

    Raises :class:`MemoryError` when even full sharding cannot fit the
    budget — the error a real DLRM deployment hits when the slice is too
    small for the tables.
    """
    count("num_chips", num_chips)
    replicated = tuple(t for t in tables if t.bytes <= replicate_threshold_bytes)
    sharded = tuple(t for t in tables if t.bytes > replicate_threshold_bytes)
    plan = EmbeddingPlacement(replicated, sharded, num_chips)
    if not plan.fits(hbm_bytes, model_budget_fraction):
        # Fall back: shard everything.
        plan = EmbeddingPlacement((), tuple(tables), num_chips)
        if not plan.fits(hbm_bytes, model_budget_fraction):
            raise MemoryError(
                f"embedding tables need {plan.per_chip_bytes() / 2**30:.1f} GiB "
                f"per chip even fully sharded; budget is "
                f"{hbm_bytes * model_budget_fraction / 2**30:.1f} GiB"
            )
    return plan


class ShardedEmbedding:
    """A row-sharded embedding table over ``num_devices`` virtual chips.

    Rows are block-partitioned; a lookup routes each id to its owner and
    counts the bytes that cross the interconnect (the all-to-all the paper
    pays for table partitioning).
    """

    def __init__(self, table: np.ndarray, num_devices: int) -> None:
        if table.ndim != 2:
            raise ValueError("table must be [rows, dim]")
        self.num_devices = count("num_devices", num_devices)
        self.rows, self.dim = table.shape
        self.rows_per_device = -(-self.rows // num_devices)
        self.shards = [
            table[d * self.rows_per_device: (d + 1) * self.rows_per_device]
            for d in range(num_devices)
        ]
        self.comm_bytes = 0.0

    def owner(self, row_id: int) -> int:
        return row_id // self.rows_per_device

    def lookup(self, ids: np.ndarray, requester: int = 0) -> np.ndarray:
        """Fetch embedding rows for ``ids``, tallying cross-device bytes."""
        ids = np.asarray(ids)
        if ids.ndim != 1:
            raise ValueError("ids must be 1-D")
        if ids.min(initial=0) < 0 or (ids.size and ids.max() >= self.rows):
            raise IndexError("embedding id out of range")
        out = np.empty((ids.size, self.dim), dtype=self.shards[0].dtype)
        for d in range(self.num_devices):
            mask = (ids // self.rows_per_device) == d
            if not mask.any():
                continue
            local = ids[mask] - d * self.rows_per_device
            out[mask] = self.shards[d][local]
            if d != requester:
                self.comm_bytes += float(mask.sum()) * self.dim * out.itemsize
        return out


# --- interaction masking (gather -> mask + adjusted FC) ---------------------


def interaction_gather(features: np.ndarray) -> np.ndarray:
    """DLRM self-interaction via gather: strict lower triangle of F @ F^T.

    ``features`` is [batch, num_features, dim]; returns
    [batch, num_features*(num_features-1)/2].
    """
    if features.ndim != 3:
        raise ValueError("features must be [batch, num_features, dim]")
    f = features.shape[1]
    prod = np.einsum("bnd,bmd->bnm", features, features)
    rows, cols = np.tril_indices(f, k=-1)
    return prod[:, rows, cols]


def interaction_masked(features: np.ndarray) -> np.ndarray:
    """The paper's version: full pairwise matrix with redundants zeroed.

    Returns [batch, num_features**2]; entries outside the strict lower
    triangle are zero, so a downstream FC initialized per
    :func:`expand_weights_for_mask` computes exactly the gathered result.
    """
    if features.ndim != 3:
        raise ValueError("features must be [batch, num_features, dim]")
    f = features.shape[1]
    prod = np.einsum("bnd,bmd->bnm", features, features)
    mask = np.tril(np.ones((f, f), dtype=bool), k=-1)
    masked = np.where(mask, prod, 0.0)
    return masked.reshape(features.shape[0], f * f)


def expand_weights_for_mask(
    w_gathered: np.ndarray, num_features: int
) -> np.ndarray:
    """FC weights for the masked layout equivalent to gathered weights.

    ``w_gathered`` is [num_pairs, out]; the result is
    [num_features**2, out] with zero rows at the masked positions, so
    ``interaction_masked(x) @ expanded == interaction_gather(x) @ w_gathered``.
    """
    pairs = num_features * (num_features - 1) // 2
    if w_gathered.shape[0] != pairs:
        raise ValueError(
            f"w_gathered has {w_gathered.shape[0]} rows, expected {pairs}"
        )
    out = w_gathered.shape[1]
    expanded = np.zeros((num_features * num_features, out), dtype=w_gathered.dtype)
    rows, cols = np.tril_indices(num_features, k=-1)
    flat_positions = rows * num_features + cols
    expanded[flat_positions] = w_gathered
    return expanded


def criteo_tables(
    num_tables: int = 26,
    total_rows: float = 188e6,
    dim: int = 128,
    seed: int = 0,
) -> list[EmbeddingTableSpec]:
    """A synthetic Criteo-like table-size distribution (heavy-tailed).

    A few categorical features (user/item ids) hold most of the rows;
    many are tiny — which is exactly why replicate-small/shard-large wins.
    """
    rng = np.random.default_rng(seed)
    weights = rng.pareto(1.0, num_tables) + 1e-3
    weights /= weights.sum()
    rows = np.maximum((weights * total_rows).astype(np.int64), 4)
    return [
        EmbeddingTableSpec(f"cat_{i}", int(r), dim) for i, r in enumerate(rows)
    ]
