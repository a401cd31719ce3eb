"""Automatic partitioner search over the tensor IR (GSPMD-style).

The paper's models were sharded by hand: a human wrote the annotations of
Section 3.1.  GSPMD (arXiv 2105.04663) and Mesh-TensorFlow (1811.02084)
showed the same decisions can be *searched* — per-tensor sharding choices
scored with a communication cost model.  This module does that over
:mod:`repro.spmd.ir` graphs:

1. **enumerate** candidate layouts for each seedable tensor (replicate, or
   split along any dimension large enough to tile);
2. **beam-search** assignments one tensor at a time, scoring every
   candidate with the real partitioner + cost estimator of a
   :func:`repro.spmd.make_partitioner` partitioner: each candidate is its
   parent's propagation resumed at the new seed and re-priced from the
   parent's prefix sums through one per-search price table, and plan
   objects are built only for the plans returned;
3. **prune** candidates whose propagation fails (shape/feasibility errors
   from the partition pass);
4. **rank** the surviving plans by estimated ``total_seconds``, always
   including the all-replicated baseline — a search result is therefore
   *never worse than replicated* by construction;
5. optionally **validate** winners bit-exactly against the replicated
   reference on a small :class:`~repro.runtime.mesh.VirtualMesh`
   (:func:`repro.spmd.graph_exec.validate_plan`).

Determinism: the beam is seed-stable.  All tie-breaks between equal-cost
candidates go through priorities drawn from
:func:`repro.seeding.derive_subseed`, so the same
``(graph, config)`` replays the identical ranked list bit-for-bit.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from repro import telemetry as _telemetry
from repro.refuse import count
from repro.seeding import derive_subseed
from repro.spmd.annotations import Sharding
from repro.spmd.estimator import CostPrefix, price_walk
from repro.spmd.graph_exec import ExecutionUnsupported, ValidationResult, validate_plan
from repro.spmd.ir import Graph, Node
from repro.spmd.partitioner import (
    REPLICATED,
    PartitionedGraph,
    PartitionInfeasible,
    layout_code,
    partition,
    refused_at_seed,
    resume,
)
from repro.spmd.plan import (
    Partitioner,
    PartitionPlan,
    ShardingSpec,
    make_partitioner,
)


@dataclass(frozen=True)
class SearchConfig:
    """Frozen, validated configuration of one search run."""

    num_shards: int
    beam_width: int = 8
    top_k: int = 5
    seed: int = 0
    seed_nodes: str = "handles"
    """Which tensors get searched layouts: ``"handles"`` (the builder's
    annotation handles — the paper's own annotation points) or ``"all"``
    (every input/parameter node)."""
    validate: bool = False
    """Bit-exactly validate the winning plan(s) on a VirtualMesh."""
    validate_top: int = 1

    def __post_init__(self) -> None:
        count("num_shards", self.num_shards)
        count("beam_width", self.beam_width)
        count("top_k", self.top_k)
        count("validate_top", self.validate_top)
        if self.seed_nodes not in ("handles", "all"):
            raise ValueError('seed_nodes must be "handles" or "all"')


@dataclass(frozen=True)
class SearchStats:
    """What the beam did (also exported as telemetry counters)."""

    candidates_expanded: int
    candidates_pruned: int
    rounds: int
    plans_validated: int = 0


@dataclass(frozen=True)
class SearchResult:
    """Ranked plans (best first) plus the replicated baseline."""

    plans: tuple[PartitionPlan, ...]
    baseline: PartitionPlan
    stats: SearchStats
    validations: tuple[ValidationResult, ...] = ()

    @property
    def best(self) -> PartitionPlan:
        return self.plans[0]

    @property
    def speedup_vs_replicated(self) -> float:
        best = self.best.total_seconds
        return self.baseline.total_seconds / best if best > 0 else 1.0

    def describe(self) -> str:
        return (
            f"search[{self.best.graph.name} k={self.best.num_shards}]: "
            f"best={self.best.total_seconds * 1e3:.3f}ms "
            f"baseline={self.baseline.total_seconds * 1e3:.3f}ms "
            f"({self.speedup_vs_replicated:.2f}x), "
            f"{self.stats.candidates_expanded} expanded / "
            f"{self.stats.candidates_pruned} pruned"
        )


def candidate_shardings(node: Node, num_shards: int) -> tuple[Sharding, ...]:
    """Layout options for one tensor: replicate + every tileable split.

    A dimension is tileable when every core gets at least one element
    (``size >= num_shards``); smaller dims would leave cores empty-handed,
    which the hardware granularity model already prices as useless.
    """
    options = [Sharding.replicate(num_shards)]
    for dim, size in enumerate(node.shape):
        if size >= num_shards:
            options.append(Sharding.split(num_shards, dim))
    return tuple(options)


def seedable_nodes(graph: Graph, seed_nodes: str) -> list[Node]:
    """The tensors the search assigns layouts to, in deterministic order."""
    if seed_nodes == "handles":
        handles = getattr(graph, "handles", {}) or {}
        ids = sorted(set(handles.values()))
        return [graph.node(i) for i in ids]
    return [n for n in graph.topological() if n.op in ("input", "parameter")]


#: Rank scored candidates by estimated step time, then seed-stable priority.
_RANK = itemgetter(0, 1)


def _tiebreaks(rng: np.random.Generator, block: int = 64) -> Iterator[float]:
    """``rng``'s doubles in order, drawn ``block`` at a time: the i-th is
    the value the i-th ``rng.random()`` call would return."""
    while True:
        yield from rng.random(block).tolist()


def search_partitioning(
    graph: Graph,
    config: SearchConfig,
    partitioner: Partitioner | None = None,
) -> SearchResult:
    """Beam-search per-tensor shardings of ``graph`` for ``num_shards`` cores.

    Returns a :class:`SearchResult` whose ``plans`` are ranked by estimated
    step time (ties broken seed-stably).  ``partitioner`` carries the
    feature set and cost-model mesh; defaults to v0.7 on a single pod.
    """
    if partitioner is None:
        partitioner = make_partitioner("v07")
    k = config.num_shards
    tiebreak = _tiebreaks(
        np.random.default_rng(derive_subseed(config.seed, "spmd_search", graph.name, str(k)))
    ).__next__

    nodes = seedable_nodes(graph, config.seed_nodes)

    # One price table for every candidate of this call; it dies with the
    # call (nothing keyed on k, features or prices may outlive a search).
    table = partitioner.price_table(graph, k)
    root_pg = partition(graph, {}, k, partitioner.features)
    baseline = partitioner.plan(
        ShardingSpec.replicated(k), root_pg, price_walk(root_pg, table)
    )
    # A scored candidate is (cost, tiebreak, state, prefix sums): a layout
    # propagated once, from its beam parent's state on (what
    # ``Partitioner.extend`` does, without the plan object).  Extending by
    # "replicate" *is* the parent's state, and every other extension is a
    # new assignment (its last entry is the round's node), so the pool of
    # distinct assignments is the root plus every feasible extension, in
    # scoring order.  One draw per feasible scored candidate, in scoring
    # order; the root, the all-replicated baseline, is the first.
    root = (baseline.total_seconds, tiebreak(), root_pg, baseline.cost.prefix)
    pool: list[tuple[float, float, PartitionedGraph, CostPrefix]] = [root]
    beam = [root]
    expanded = 1
    pruned = 0
    partitions_run = 1  # the baseline, then every new assignment
    # Nodes walked by propagation and by the estimator (the baseline's
    # full passes, then each extension from its seed on).
    nodes_propagated = nodes_priced = len(graph.nodes)

    rounds = 0
    for node in nodes:
        rounds += 1
        frontier = []
        node_id = node.id
        walked = len(graph.nodes) - node_id
        options = [
            (code, refused_at_seed(graph, k, node_id, code))
            for code in map(layout_code, candidate_shardings(node, k))
        ]
        for parent in beam:
            parent_cost, _, parent_pg, parent_prefix = parent
            for code, refused in options:
                expanded += 1
                if code == REPLICATED:
                    cand = (parent_cost, tiebreak(), parent_pg, parent_prefix)
                else:
                    partitions_run += 1
                    if refused:  # a split conv filter, before any walk
                        pruned += 1
                        continue
                    try:
                        pg = resume(parent_pg, node_id, code)
                    except PartitionInfeasible as exc:
                        # Propagation infeasible under this feature set: prune.
                        pruned += 1
                        nodes_propagated += exc.nodes_visited
                        continue
                    nodes_propagated += walked
                    nodes_priced += walked
                    prefix = price_walk(pg, table, (parent_prefix, node_id))
                    compute, serial, comm, _ = prefix.totals()
                    # ``PartitionCost.total_seconds`` of the plan this would be.
                    cost = compute + serial + comm
                    cand = (cost, tiebreak(), pg, prefix)
                    pool.append(cand)
                frontier.append(cand)
        if frontier:
            frontier.sort(key=_RANK)
            beam = frontier[: config.beam_width]
        # An empty frontier keeps the previous beam: every extension of
        # this node was infeasible, so its layout stays unassigned.

    pool.sort(key=_RANK)
    # Plan objects only for what the caller reads; a spec lists its
    # assignments in the order the search made them.
    plans = tuple(
        baseline if pg is root_pg
        else partitioner.plan(ShardingSpec(k, tuple(pg.seeds.items())), pg, prefix)
        for _, _, pg, prefix in pool[: config.top_k]
    )

    validations: list[ValidationResult] = []
    if config.validate:
        for plan in plans[: config.validate_top]:
            try:
                validations.append(validate_plan(plan, seed=config.seed))
            except ExecutionUnsupported:
                # Shape-model graphs (stride-2 convs, huge tensors) cannot
                # run at small scale; the caller sees no verdict for them.
                break

    stats = SearchStats(
        candidates_expanded=expanded,
        candidates_pruned=pruned,
        rounds=rounds,
        plans_validated=len(validations),
    )
    if _telemetry.enabled:
        m = _telemetry.metrics
        m.counter("spmd_search_runs").inc()
        m.counter("spmd_search_candidates_expanded").inc(expanded)
        m.counter("spmd_search_candidates_pruned").inc(pruned)
        m.counter("spmd_search_partitions_run").inc(partitions_run)
        m.counter("spmd_search_nodes_propagated").inc(nodes_propagated)
        m.counter("spmd_search_nodes_priced").inc(nodes_priced)
        m.counter("spmd_search_plans_validated").inc(len(validations))
        m.counter("spmd_search_plans_returned").inc(len(plans))
    return SearchResult(
        plans=plans,
        baseline=baseline,
        stats=stats,
        validations=tuple(validations),
    )
