"""Automatic partitioner search over the tensor IR (GSPMD-style).

The paper's models were sharded by hand: a human wrote the annotations of
Section 3.1.  GSPMD (arXiv 2105.04663) and Mesh-TensorFlow (1811.02084)
showed the same decisions can be *searched* — per-tensor sharding choices
scored with a communication cost model.  This module does that over
:mod:`repro.spmd.ir` graphs:

1. **enumerate** candidate layouts for each seedable tensor (replicate, or
   split along any dimension large enough to tile);
2. **beam-search** assignments one tensor at a time, scoring every
   candidate with the real partitioner + cost estimator through the
   :func:`repro.spmd.make_partitioner` facade;
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
:func:`repro.cluster.jobs.derive_subseed`, so the same
``(graph, config)`` replays the identical ranked list bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import telemetry as _telemetry
from repro.spmd.annotations import Sharding
from repro.spmd.graph_exec import ExecutionUnsupported, ValidationResult, validate_plan
from repro.spmd.ir import Graph, Node
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
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.beam_width < 1:
            raise ValueError("beam_width must be >= 1")
        if self.top_k < 1:
            raise ValueError("top_k must be >= 1")
        if self.seed_nodes not in ("handles", "all"):
            raise ValueError('seed_nodes must be "handles" or "all"')
        if self.validate_top < 1:
            raise ValueError("validate_top must be >= 1")


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


@dataclass
class _Candidate:
    """One beam entry: a (partial) assignment and its scored plan.

    ``key`` is the assignment's canonical form: its non-replicated entries
    ``(node id, dim, partial)`` in node order.  Assigning "replicate" leaves
    the key, and so the plan, unchanged.
    """

    key: tuple[tuple[int, int | None, bool], ...]
    plan: PartitionPlan
    tiebreak: float

    @property
    def cost(self) -> float:
        return self.plan.total_seconds


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
    from repro.cluster.jobs import derive_subseed  # lazy: avoids import cycle

    if partitioner is None:
        partitioner = make_partitioner("v07")
    k = config.num_shards
    rng = np.random.default_rng(
        derive_subseed(config.seed, "spmd_search", graph.name, str(k))
    )

    nodes = seedable_nodes(graph, config.seed_nodes)

    baseline = partitioner.partition(graph, ShardingSpec.replicated(k))
    # Plans propagated by this call, by candidate key; None where
    # propagation is infeasible.  A key is propagated once, and from its
    # beam parent's plan on (``Partitioner.extend``), not from the graph's
    # first node.  The table dies with the call: nothing keyed on
    # (graph, config) or (graph, spec) may outlive one search.
    propagated: dict[tuple, PartitionPlan | None] = {(): baseline}
    # Best plans seen anywhere in the search, deduplicated by assignment.
    pool: dict[tuple, _Candidate] = {}
    expanded = 0
    pruned = 0
    # Nodes walked by propagation and by the estimator (the baseline's
    # full passes, then each extension from its seed on).
    nodes_propagated = nodes_priced = len(graph.nodes)

    def score(key: tuple) -> _Candidate | None:
        """Count one candidate whose key has been propagated."""
        nonlocal expanded, pruned
        expanded += 1
        plan = propagated[key]
        if plan is None:
            pruned += 1
            return None
        # One draw per feasible scored candidate, in scoring order.
        cand = _Candidate(key=key, plan=plan, tiebreak=float(rng.random()))
        pool.setdefault(key, cand)
        return cand

    def extended(parent: _Candidate, node: Node, sharding: Sharding) -> tuple:
        """Key of ``parent`` with ``node`` laid out as ``sharding``."""
        nonlocal nodes_propagated, nodes_priced
        if sharding.replicated:
            return parent.key  # the parent's own plan
        key = parent.key + ((node.id, sharding.dim, sharding.partial),)
        if key not in propagated:
            try:
                propagated[key] = partitioner.extend(parent.plan, node.id, sharding)
            except (NotImplementedError, ValueError, KeyError) as exc:
                # Propagation infeasible under this feature set: prune.
                propagated[key] = None
                nodes_propagated += getattr(exc, "nodes_visited", 0)
            else:
                walked = len(graph.nodes) - node.id
                nodes_propagated += walked
                nodes_priced += walked
        return key

    root = score(())
    assert root is not None  # the replicated assignment always propagates
    beam: list[_Candidate] = [root]

    rounds = 0
    for node in nodes:
        rounds += 1
        frontier: list[_Candidate] = []
        options = candidate_shardings(node, k)
        for cand in beam:
            for sharding in options:
                nxt = score(extended(cand, node, sharding))
                if nxt is not None:
                    frontier.append(nxt)
        if frontier:
            frontier.sort(key=lambda c: (c.cost, c.tiebreak))
            beam = frontier[: config.beam_width]
        # An empty frontier keeps the previous beam: every extension of
        # this node was infeasible, so its layout stays unassigned.

    ranked = sorted(pool.values(), key=lambda c: (c.cost, c.tiebreak))
    plans = tuple(c.plan for c in ranked[: config.top_k])
    if not plans:  # pragma: no cover - pool always holds the root
        plans = (baseline,)

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
        m.counter("spmd_search_partitions_run").inc(len(propagated))
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
