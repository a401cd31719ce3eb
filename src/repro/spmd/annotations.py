"""Sharding annotations: how a tensor is laid out over the model tile.

:class:`Sharding` is the single layout type; the supported constructors are
its classmethods (``Sharding.replicate`` / ``Sharding.split`` /
``Sharding.partial_sum``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.refuse import count


@dataclass(frozen=True)
class Sharding:
    """Layout of one tensor across ``num_shards`` model-parallel cores.

    ``dim is None`` means fully replicated.  ``partial=True`` means every
    core holds a partial *sum* of the full value (a matmul whose contracting
    dimension was sharded) — usable only after an all-reduce.
    """

    num_shards: int
    dim: int | None = None
    partial: bool = False

    def __post_init__(self) -> None:
        count("num_shards", self.num_shards)
        if self.partial and self.dim is not None:
            raise ValueError("a partial value is not also dim-sharded")
        if self.dim is not None:
            count("dim", self.dim, minimum=0)

    # --- supported constructors ----------------------------------------

    # Interned: the partitioner asks for the same few layouts once per
    # node per candidate, and a frozen value can be shared.

    @classmethod
    def replicate(cls, num_shards: int) -> "Sharding":
        """Fully replicated over ``num_shards`` cores."""
        return _interned(num_shards, None, False)

    @classmethod
    def split(cls, num_shards: int, dim: int) -> "Sharding":
        """Split along tensor dimension ``dim`` over ``num_shards`` cores."""
        return _interned(num_shards, dim, False)

    @classmethod
    def partial_sum(cls, num_shards: int) -> "Sharding":
        """Every core holds a partial sum (pending all-reduce)."""
        return _interned(num_shards, None, True)

    # --- inspection -----------------------------------------------------

    @property
    def replicated(self) -> bool:
        return self.dim is None and not self.partial

    def describe(self) -> str:
        if self.partial:
            return f"partial(+{self.num_shards})"
        if self.dim is None:
            return "replicated"
        return f"split(dim={self.dim}, {self.num_shards})"


@lru_cache(maxsize=1024)
def _interned(num_shards: int, dim: int | None, partial: bool) -> Sharding:
    return Sharding(num_shards, dim, partial)
