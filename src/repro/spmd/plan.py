"""The supported ``repro.spmd`` surface: spec -> partitioner -> plan.

Mirrors the ``TrainerConfig``/``make_trainer``/``StepResult`` pattern of
:mod:`repro.core.trainer`:

* :class:`ShardingSpec` — a validated frozen config naming which tensors
  are sharded and how (by node id, node name, or ``graph.handles`` key);
* :func:`make_partitioner` — the factory that resolves feature-set names
  ("v06"/"v07") and binds the cost model's mesh;
* :class:`PartitionPlan` — the result object carrying the resolved
  assignments, the inserted :class:`~repro.spmd.partitioner.CommOp`\\ s and
  the :class:`~repro.spmd.estimator.PartitionCost`.

The propagation pass (:func:`repro.spmd.partitioner.partition`) and the
estimator (:func:`repro.spmd.estimator.estimate_cost`) stay importable for
code that needs one without the other (Figure 9's speedup curves).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.topology import TorusMesh, single_pod
from repro.spmd.annotations import Sharding
from repro.spmd.estimator import PartitionCost, cost_prices, estimate_cost
from repro.spmd.ir import Graph
from repro.spmd.partitioner import (
    CommOp,
    PartitionedGraph,
    PartitionerFeatures,
    V06_FEATURES,
    V07_FEATURES,
    partition,
    repartition,
)

#: feature-set names accepted by :func:`make_partitioner`.
FEATURE_SETS: dict[str, PartitionerFeatures] = {
    "v06": V06_FEATURES,
    "v07": V07_FEATURES,
}


@dataclass(frozen=True)
class ShardingSpec:
    """A validated, frozen set of seed shardings for one graph.

    ``assignments`` maps tensor references to layouts.  A reference is a
    node id (``int``) or a name (``str``) resolved against
    ``graph.handles`` first, then node names — so specs written against
    the :mod:`repro.spmd.modelgraphs` builders survive graph rebuilds.
    """

    num_shards: int
    assignments: tuple[tuple[int | str, Sharding], ...] = ()

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if not isinstance(self.assignments, tuple):
            object.__setattr__(self, "assignments", tuple(self.assignments))
        seen: set[int | str] = set()
        for ref, sharding in self.assignments:
            if not isinstance(ref, (int, str)):
                raise TypeError(f"assignment key must be int or str, got {ref!r}")
            if ref in seen:
                raise ValueError(f"duplicate assignment for {ref!r}")
            seen.add(ref)
            if not isinstance(sharding, Sharding):
                raise TypeError(f"assignment for {ref!r} is not a Sharding")
            if sharding.num_shards != self.num_shards:
                raise ValueError(
                    f"assignment for {ref!r} uses {sharding.num_shards} shards, "
                    f"spec uses {self.num_shards}"
                )

    @classmethod
    def replicated(cls, num_shards: int) -> "ShardingSpec":
        """The no-annotation baseline: everything replicated."""
        return cls(num_shards=num_shards)

    @classmethod
    def from_seeds(
        cls, num_shards: int, seeds: dict[int | str, Sharding]
    ) -> "ShardingSpec":
        """Build a spec from a seed dict (sorted for a canonical order)."""
        items = sorted(seeds.items(), key=lambda kv: (str(type(kv[0])), str(kv[0])))
        return cls(num_shards=num_shards, assignments=tuple(items))

    def resolve(self, graph: Graph) -> dict[int, Sharding]:
        """Map every assignment to a node id in ``graph``."""
        handles: dict[str, int] = getattr(graph, "handles", {}) or {}
        out: dict[int, Sharding] = {}
        for ref, sharding in self.assignments:
            if isinstance(ref, int):
                node_id = ref
                graph.node(node_id)  # raises ShapeError on unknown ids
            elif ref in handles:
                node_id = handles[ref]
            elif ref in (by_name := graph.tables().ids_by_name):
                node_id = by_name[ref]
            else:
                raise KeyError(
                    f"spec references {ref!r}, not a handle or node name of "
                    f"graph {graph.name!r}"
                )
            if node_id in out:
                raise ValueError(f"two assignments resolve to node {node_id}")
            out[node_id] = sharding
        return out

    def describe(self) -> str:
        parts = ", ".join(f"{ref}={s.describe()}" for ref, s in self.assignments)
        return f"ShardingSpec(k={self.num_shards}, {{{parts or 'replicated'}}})"


@dataclass(frozen=True)
class PartitionPlan:
    """One partitioning of one graph, with its communication and cost."""

    graph: Graph = field(repr=False)
    spec: ShardingSpec
    partitioned: PartitionedGraph = field(repr=False)
    cost: PartitionCost

    @property
    def num_shards(self) -> int:
        return self.partitioned.num_shards

    @property
    def shardings(self) -> dict[int, Sharding]:
        """Final layout of every value (post partial-resolution)."""
        return self.partitioned.shardings

    @property
    def compute_shardings(self) -> dict[int, Sharding]:
        """Layout each op computed under (what the cost model priced)."""
        return self.partitioned.compute_shardings

    @property
    def comm_ops(self) -> list[CommOp]:
        return self.partitioned.comm_ops

    @property
    def serial_nodes(self) -> set[int]:
        return self.partitioned.serial_nodes

    @property
    def total_seconds(self) -> float:
        return self.cost.total_seconds

    def describe(self) -> str:
        c = self.cost
        return (
            f"plan[{self.graph.name} k={self.num_shards}] "
            f"total={c.total_seconds * 1e3:.3f}ms "
            f"(compute={c.compute_seconds * 1e3:.3f} "
            f"serial={c.serial_seconds * 1e3:.3f} "
            f"comm={c.comm_seconds * 1e3:.3f}) "
            f"comm_ops={len(self.comm_ops)} serial_nodes={len(self.serial_nodes)}"
        )


@dataclass(frozen=True)
class Partitioner:
    """A configured partitioner: feature set + cost-model target mesh."""

    features: PartitionerFeatures = V07_FEATURES
    mesh: TorusMesh | None = None
    mxu_efficiency: float = 0.35
    _cost_mesh: TorusMesh = field(init=False, repr=False, compare=False)
    _prices: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Resolved once: every plan this partitioner costs reads them.
        cost_mesh = self.mesh if self.mesh is not None else single_pod()
        object.__setattr__(self, "_cost_mesh", cost_mesh)
        object.__setattr__(
            self, "_prices", cost_prices(cost_mesh, mxu_efficiency=self.mxu_efficiency)
        )

    def partition(self, graph: Graph, spec: ShardingSpec) -> PartitionPlan:
        """Propagate ``spec`` through ``graph`` and cost the result."""
        seeds = spec.resolve(graph)
        pg = partition(graph, seeds, spec.num_shards, self.features)
        return self._costed(graph, spec, pg)

    def extend(
        self, plan: PartitionPlan, node_id: int, sharding: Sharding
    ) -> PartitionPlan:
        """``plan`` with one more tensor assigned a layout, re-propagated
        (:func:`~repro.spmd.partitioner.repartition`) and re-priced
        (:func:`~repro.spmd.estimator.estimate_cost`'s ``resume``) only from
        that tensor on.

        Equal, field for field and float for float, to ``partition(graph,
        spec)`` with the assignment appended to ``plan.spec`` — what lets a
        search score a mutation of a layout for the cost of the subgraph it
        touches.  ``plan`` must have been made with this partitioner's
        feature set and priced at its rates (same mesh chip and MXU
        efficiency), or its prefix sums would leak into the new plan.
        """
        features = plan.partitioned.features
        if features is not self.features and features != self.features:
            raise ValueError("plan was partitioned under a different feature set")
        prefix = plan.cost.prefix
        if prefix is None or prefix.prices != self._prices:
            raise ValueError("plan was priced under a different mesh or MXU efficiency")
        spec = ShardingSpec(
            plan.spec.num_shards, plan.spec.assignments + ((node_id, sharding),)
        )
        pg = repartition(plan.partitioned, node_id, sharding)
        return self._costed(plan.graph, spec, pg, resume=(plan.cost, node_id))

    def _costed(
        self,
        graph: Graph,
        spec: ShardingSpec,
        pg: PartitionedGraph,
        resume: tuple[PartitionCost, int] | None = None,
    ) -> PartitionPlan:
        cost = estimate_cost(
            pg, self._cost_mesh, mxu_efficiency=self.mxu_efficiency, resume=resume
        )
        return PartitionPlan(graph=graph, spec=spec, partitioned=pg, cost=cost)


def make_partitioner(
    features: PartitionerFeatures | str = "v07",
    *,
    mesh: TorusMesh | None = None,
    mxu_efficiency: float = 0.35,
) -> Partitioner:
    """Build a :class:`Partitioner` (the supported entry point).

    ``features`` is a :class:`PartitionerFeatures` or one of
    ``{"v06", "v07"}``; ``mesh`` defaults to a single TPU-v3 pod.
    """
    if isinstance(features, str):
        try:
            features = FEATURE_SETS[features]
        except KeyError:
            raise ValueError(
                f"unknown feature set {features!r}; expected one of "
                f"{sorted(FEATURE_SETS)}"
            ) from None
    elif not isinstance(features, PartitionerFeatures):
        raise TypeError(f"features must be str or PartitionerFeatures, got {features!r}")
    if not 0.0 < mxu_efficiency <= 1.0:
        raise ValueError("mxu_efficiency must be in (0, 1]")
    return Partitioner(features=features, mesh=mesh, mxu_efficiency=mxu_efficiency)
