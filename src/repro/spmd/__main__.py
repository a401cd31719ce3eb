"""Partitioner-search smoke: bounded 2-model search with hard assertions.

``python -m repro.spmd`` beam-searches shardings for two model graphs (a
small executable ResNet block and the Transformer model-parallel block),
then asserts the claims CI gates on:

* **feasibility** — every returned plan propagates (the search only ranks
  plans the partitioner accepted) and carries a finite positive cost;
* **determinism** — re-running with the same seed reproduces the ranked
  list bit-for-bit (specs and costs);
* **never worse than replicated** — the best plan's estimated step time is
  <= the all-replicated baseline;
* **matches/beats the hand annotation** under V07 features;
* **bit-exactness** — the winning plan computes the same numbers as the
  unsharded reference on a small VirtualMesh;
* **resumed scoring is a full pass** — every ranked plan, scored by the
  search from its parent's prefix sums, re-partitioned from scratch has
  ``float.hex``-equal compute, serial, comm seconds and comm bytes.

Exits non-zero on any failure so CI can gate on it.
"""

from __future__ import annotations

import os
import sys

from repro.spmd import (
    SearchConfig,
    ShardingSpec,
    Sharding,
    make_partitioner,
    resnet_block_graph,
    search_partitioning,
    transformer_block_graph,
)
from repro.spmd.modelgraphs import transformer_seeds


def _cost_bits(plan) -> tuple[str, ...]:
    c = plan.cost
    return tuple(
        x.hex() for x in (c.compute_seconds, c.serial_seconds, c.comm_seconds, c.comm_bytes)
    )


def main() -> int:
    seed = int(os.environ.get("REPRO_SPMD_SEED", "2021"))
    k = 4
    partitioner = make_partitioner("v07")
    failures: list[str] = []

    def check(ok: bool, what: str) -> None:
        print(("  PASS " if ok else "  FAIL ") + what)
        if not ok:
            failures.append(what)

    # Small shapes keep the search + bit-exact execution fast in CI.
    models = {
        "resnet_block": (
            resnet_block_graph(),
            lambda g: {"image": Sharding.split(k, 1)},
        ),
        "transformer_block": (
            transformer_block_graph(seq=16, hidden=32, ffn=64, vocab=128),
            lambda g: dict(transformer_seeds(g, k)),
        ),
    }

    for name, (graph, hand_seeds) in models.items():
        config = SearchConfig(
            num_shards=k, seed=seed, seed_nodes="all", validate=True
        )
        result = search_partitioning(graph, config, partitioner)
        print(f"{name}: {result.describe()}")

        check(len(result.plans) >= 1, f"{name}: search returned plans")
        check(
            all(0.0 < p.total_seconds < float("inf") for p in result.plans),
            f"{name}: every ranked plan is feasible with finite cost",
        )
        check(
            result.best.total_seconds <= result.baseline.total_seconds,
            f"{name}: never worse than replicated",
        )
        hand = partitioner.partition(
            graph, ShardingSpec.from_seeds(k, dict(hand_seeds(graph)))
        )
        check(
            result.best.total_seconds <= hand.total_seconds,
            f"{name}: matches/beats hand annotation "
            f"({result.best.total_seconds:.3e} vs {hand.total_seconds:.3e})",
        )
        check(
            bool(result.validations) and result.validations[0].ok,
            f"{name}: winning plan is bit-exact "
            f"({result.validations[0].describe() if result.validations else 'no verdict'})",
        )
        check(
            all(
                _cost_bits(partitioner.partition(graph, p.spec)) == _cost_bits(p)
                for p in result.plans
            ),
            f"{name}: every ranked plan's resumed cost equals a full pass, "
            f"float.hex for float.hex",
        )

        replay = search_partitioning(graph, config, partitioner)
        identical = len(replay.plans) == len(result.plans) and all(
            a.spec == b.spec and a.total_seconds == b.total_seconds
            for a, b in zip(result.plans, replay.plans)
        )
        check(identical, f"{name}: ranked list replays bit-identically")

    if failures:
        print(f"\nspmd-search smoke: {len(failures)} check(s) FAILED")
        return 1
    print("\nspmd-search smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
