"""``plan_query`` — the analyst path: regenerate tables, ask what-if questions.

No numpy training at all: ``spmd`` search, the ``sim``+``comm``+``hardware``
discrete-event schedules, the ``core`` analytic models and ``experiments``
do the work and ``runtime`` almost none, so this is the bypass workload for
every numpy-kernel change.  Cold DES calls use a seeded, never-repeated
payload size, so the phase cache cannot fake a DES speed-up; the identical
call right after is the cache hit beside the miss.
"""

from __future__ import annotations

import functools
from collections import defaultdict

from bench import checks
from bench.harness import Op, PassResult, kind_median_ms
from bench.workloads import Workload, hit_ratio, median_time, runtime_counters, subseed
from repro import telemetry
from repro.comm.allreduce import two_phase_allreduce
from repro.comm.schedule import simulate_ring_reduce_scatter
from repro.core import StepTimeModel, plan_parallelism
from repro.experiments.calibration import spec_for
from repro.experiments.runner import EXPERIMENTS
from repro.hardware.rings import all_y_rings
from repro.hardware.topology import slice_for_chips
from repro.sim import Simulator
from repro.spmd import (
    SearchConfig,
    ShardingSpec,
    make_partitioner,
    search_partitioning,
    validate_plan,
)
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
)

MODELS = ("resnet50", "bert", "ssd", "transformer", "maskrcnn", "dlrm")
CHIPS = (16, 64, 256, 1024, 4096)
TABLES = (
    "table1", "table2", "figure5", "figure6", "figure7", "figure8",
    "figure9", "figure10", "figure11", "sensitivity",
)
GRAPHS = {
    "ssd": ssd_graph,
    "maskrcnn": maskrcnn_graph,
    "transformer": functools.partial(transformer_block_graph, seq=27),
    "resnet_block": resnet_block_graph,
}
SEARCHED_MODELS = ("transformer", "ssd", "maskrcnn")


def _steptime(model: str, chips: int):
    spec = spec_for(model)

    def query():
        choice = plan_parallelism(spec, chips)
        return StepTimeModel(spec, choice.config).breakdown()

    return query


class PlanQuery(Workload):
    name = "plan_query"

    def setup(self) -> None:
        self.partitioner = make_partitioner("v07")
        self.graphs = {name: build() for name, build in GRAPHS.items()}
        self.mesh_256 = slice_for_chips(256)
        self.rings_256 = all_y_rings(self.mesh_256)
        self.mesh_512 = slice_for_chips(512)
        self.rings_512 = all_y_rings(self.mesh_512)
        self.cold: dict[float, float] = {}
        #: pass index -> candidates the pass's searches expanded
        self.expanded: dict[int, int] = defaultdict(int)

    def _search(
        self, index: int, graph_name: str, k: int, seed_nodes: str, beam: int
    ) -> Op:
        validate = graph_name == "resnet_block" and seed_nodes == "all"
        config = SearchConfig(
            num_shards=k, seed=self.seed, seed_nodes=seed_nodes,
            beam_width=beam, validate=validate,
        )
        graph = self.graphs[graph_name]

        def verify(result) -> bool:
            self.expanded[index] += result.stats.candidates_expanded
            return checks.never_worse_than_replicated(result) and (
                not validate or checks.search_validated(result)
            )

        kind = f"search_{graph_name}_{seed_nodes}"
        return Op(
            kind, lambda: search_partitioning(graph, config, self.partitioner), verify
        )

    def _des(self, kind: str, mesh, rings, payload: float, warm: bool) -> Op:
        def verify(seconds: float) -> bool:
            if warm:
                return seconds == self.cold[payload]
            self.cold[payload] = seconds
            return seconds > 0.0

        return Op(
            kind, lambda: simulate_ring_reduce_scatter(mesh, rings, payload), verify
        )

    def build_pass(self, index: int) -> list[list[Op]]:
        rng = subseed(self.seed, 1, index)
        # Payload bytes drawn from a continuum: never equal across passes.
        payloads = (1e6 * (1.0 + rng.random(4))).tolist()
        ops = [Op("steptime", _steptime(m, c)) for m in MODELS for c in CHIPS]
        ops += [Op("table", EXPERIMENTS[name], checks.tables_nonempty) for name in TABLES]
        ops.append(Op("overlap", EXPERIMENTS["overlap"], checks.tables_nonempty))
        ops += [
            self._search(index, g, k, nodes, beam)
            for g in GRAPHS
            for k in (2, 4, 8)
            for nodes in ("handles", "all")
            for beam in (8, 32)
        ]
        ops += [
            Op(
                "plan_searched",
                functools.partial(
                    plan_parallelism, spec_for(m), 2048,
                    search_sharding=True, search_seed=self.seed,
                ),
            )
            for m in SEARCHED_MODELS
        ]
        for payload in payloads[:3]:
            ops.append(self._des("des_cold_256", self.mesh_256, self.rings_256, payload, False))
            ops.append(self._des("des_warm_256", self.mesh_256, self.rings_256, payload, True))
        ops.append(self._des("des_cold_512", self.mesh_512, self.rings_512, payloads[3], False))
        return [ops]

    def counters(self) -> dict[str, float]:
        total = telemetry.metrics.total
        out = runtime_counters()
        out["spmd.candidates_expanded"] = total("spmd_search_candidates_expanded")
        out["spmd.candidates_pruned"] = total("spmd_search_candidates_pruned")
        out["sim.phase_runs"] = total("sim_phase_cache_misses")
        return out

    def layer_metrics(self, passes: list[PassResult]) -> dict[str, float]:
        total = telemetry.metrics.total
        expanded = total("spmd_search_candidates_expanded")
        pruned = total("spmd_search_candidates_pruned")
        search_s = sum(
            s for p in passes for k, s, _ in p.latencies if k.startswith("search_")
        )
        searched = sum(self.expanded[i] for i in range(len(passes)))
        return {
            "core.steptime_query_us": 1e3 * kind_median_ms(passes, "steptime"),
            "experiments.tables_ms": len(TABLES) * kind_median_ms(passes, "table"),
            "experiments.overlap_ms": kind_median_ms(passes, "overlap"),
            "spmd.candidates_per_s": searched / search_s if search_s else 0.0,
            "spmd.prune_ratio": pruned / expanded if expanded else 0.0,
            "spmd.search_ms_ssd_all": kind_median_ms(passes, "search_ssd_all"),
            "spmd.search_ms_transformer_all": kind_median_ms(passes, "search_transformer_all"),
            "comm.des_cold_256_ms": kind_median_ms(passes, "des_cold_256"),
            "comm.des_cold_512_ms": kind_median_ms(passes, "des_cold_512"),
            "comm.des_warm_us": 1e3 * kind_median_ms(passes, "des_warm_256"),
            "sim.phase_cache_hit_ratio": hit_ratio(
                total("sim_phase_cache_hits"), total("sim_phase_cache_misses")
            ),
        }

    def probes(self) -> dict[str, float]:
        graph = self.graphs["ssd"]
        hand = ShardingSpec.from_seeds(4, dict(spatial_seeds(graph, 4)))
        resnet = search_partitioning(
            self.graphs["resnet_block"],
            SearchConfig(num_shards=4, seed=self.seed, seed_nodes="all"),
            self.partitioner,
        ).best

        def events() -> None:
            sim = Simulator()

            def ticker(sim):
                for _ in range(2_000):
                    yield sim.timeout(1.0)

            for _ in range(100):
                sim.process(ticker(sim))
            sim.run()

        return {
            "spmd.partition_estimate_us": 1e6 * median_time(
                lambda: self.partitioner.partition(graph, hand), 15
            ),
            "spmd.validate_ms_resnet_block": 1e3 * median_time(
                lambda: validate_plan(resnet), 5
            ),
            "sim.events_per_s": 200_000 / median_time(events, 3),
            "comm.cost_model_us": 1e6 * median_time(
                lambda: two_phase_allreduce(self.mesh_256, 1e8), 25
            ),
            "hardware.mesh_build_ms": 1e3 * median_time(
                lambda: all_y_rings(slice_for_chips(1024)), 5
            ),
        }
