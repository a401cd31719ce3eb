"""Tests for the automatic partitioner search (repro.spmd.search)."""

import copy
import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.hardware.chip import TPU_V2
from repro.hardware.topology import TorusMesh, single_pod
from repro.spmd import (
    PartitionCost,
    SearchConfig,
    Sharding,
    ShardingSpec,
    make_partitioner,
    search_partitioning,
)
from repro.spmd.estimator import PriceTable
from repro.spmd.ir import Graph
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)
from repro.spmd.search import _tiebreaks, candidate_shardings, seedable_nodes

small_transformer = functools.partial(
    transformer_block_graph, seq=16, hidden=32, ffn=64, vocab=128
)

#: graphs small enough for property tests to search quickly.
GRAPHS = {
    "resnet_block": resnet_block_graph,
    "small_transformer": small_transformer,
}


def _plan_key(plan):
    """Everything that identifies a ranked plan, for determinism checks."""
    return (plan.spec.assignments, plan.total_seconds)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(num_shards=0)
        with pytest.raises(ValueError):
            SearchConfig(num_shards=2, beam_width=0)
        with pytest.raises(ValueError):
            SearchConfig(num_shards=2, top_k=0)
        with pytest.raises(ValueError):
            SearchConfig(num_shards=2, seed_nodes="some")
        with pytest.raises(ValueError):
            SearchConfig(num_shards=2, validate_top=0)


class TestCandidateEnumeration:
    def test_only_tileable_dims(self):
        g = Graph()
        x = g.input((8, 2))
        options = candidate_shardings(g.node(x), 4)
        assert options[0].replicated
        assert [s.dim for s in options[1:]] == [0]  # dim 1 has size 2 < 4

    def test_seedable_modes(self):
        g = small_transformer()
        handles = seedable_nodes(g, "handles")
        everything = seedable_nodes(g, "all")
        assert {n.id for n in handles} == set(g.handles.values())
        assert {n.op for n in everything} <= {"input", "parameter"}
        assert len(everything) >= len(handles)


class TestSearchProperties:
    """The ISSUE's three properties, driven by hypothesis."""

    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        k=st.sampled_from([2, 4]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_plans_feasible_and_ranked(self, name, k, seed):
        result = search_partitioning(
            GRAPHS[name](), SearchConfig(num_shards=k, seed=seed)
        )
        costs = [p.total_seconds for p in result.plans]
        assert costs == sorted(costs)
        for plan in result.plans:
            assert plan.num_shards == k
            assert math.isfinite(plan.total_seconds)
            assert plan.total_seconds > 0
            # Feasible: the spec re-partitions without raising.
            replay = make_partitioner("v07").partition(plan.graph, plan.spec)
            assert replay.total_seconds == plan.total_seconds

    def test_tiebreaks_are_the_generators_scalar_draws(self):
        """Drawn in blocks, the i-th tiebreak is the i-th ``rng.random()``."""
        blocked = _tiebreaks(np.random.default_rng(7), block=5)
        scalar = np.random.default_rng(7)
        assert [next(blocked) for _ in range(23)] == [
            float(scalar.random()) for _ in range(23)
        ]

    @settings(max_examples=6, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_seed_deterministic(self, name, seed):
        config = SearchConfig(num_shards=4, seed=seed)
        a = search_partitioning(GRAPHS[name](), config)
        b = search_partitioning(GRAPHS[name](), config)
        assert [_plan_key(p) for p in a.plans] == [_plan_key(p) for p in b.plans]
        assert a.stats == b.stats

    @settings(max_examples=8, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        k=st.sampled_from([2, 4, 8]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_worse_than_replicated(self, name, k, seed):
        result = search_partitioning(
            GRAPHS[name](), SearchConfig(num_shards=k, seed=seed)
        )
        assert result.best.total_seconds <= result.baseline.total_seconds
        assert result.speedup_vs_replicated >= 1.0


class TestSearchMatchesHandAnnotations:
    """Acceptance: search matches or beats the paper's hand annotations."""

    @pytest.mark.parametrize(
        "builder,hand_fn,k",
        [
            (ssd_graph, spatial_seeds, 4),
            (transformer_block_graph, transformer_seeds, 4),
            (resnet_block_graph, spatial_seeds, 2),
        ],
    )
    def test_matches_or_beats(self, builder, hand_fn, k):
        graph = builder()
        partitioner = make_partitioner("v07")
        hand = partitioner.partition(
            graph, ShardingSpec.from_seeds(k, dict(hand_fn(graph, k)))
        )
        result = search_partitioning(
            graph, SearchConfig(num_shards=k, seed=0), partitioner
        )
        assert result.best.total_seconds <= hand.total_seconds


class TestPinnedRegressions:
    def test_transformer_k4_winner(self):
        """The searched transformer plan recovers the hand sharding exactly."""
        g = transformer_block_graph()
        result = search_partitioning(g, SearchConfig(num_shards=4, seed=0))
        hand = make_partitioner("v07").partition(
            g, ShardingSpec.from_seeds(4, dict(transformer_seeds(g, 4)))
        )
        assert result.best.total_seconds == pytest.approx(hand.total_seconds)
        assert result.speedup_vs_replicated == pytest.approx(3.4777, abs=1e-3)
        # Feature-dimension sharding of the weights, as in Section 3.1.
        split_dims = {
            g.node(ref).name: s.dim for ref, s in result.best.spec.assignments
        }
        assert split_dims["embedding"] == 0  # vocab-contracting split
        assert split_dims["ffn_w1"] == 1

    def test_resnet_block_k4_winner_validates(self):
        """At toy scale replication wins, and the winner is bit-exact."""
        result = search_partitioning(
            resnet_block_graph(),
            SearchConfig(num_shards=4, seed=0, seed_nodes="all", validate=True),
        )
        assert result.best.spec.assignments == ()
        assert result.best.total_seconds == pytest.approx(1.431e-05, rel=1e-3)
        assert result.stats.plans_validated == 1
        assert result.validations[0].ok

    def test_searched_beats_hand_on_resnet_block(self):
        g = resnet_block_graph()
        hand = make_partitioner("v07").partition(
            g, ShardingSpec.from_seeds(4, dict(spatial_seeds(g, 4)))
        )
        result = search_partitioning(g, SearchConfig(num_shards=4, seed=0))
        assert result.best.total_seconds < hand.total_seconds


class TestSearchedWinnersAtK4:
    """Every claim of the former CI search smoke, at its configuration: a
    search over every input/parameter of the two executable graphs at
    k = 4 returns feasible plans no worse than replicated or the hand
    annotation, each equal to a fresh partition, replays bit-identically,
    and its winner computes bit-exactly what the unsharded graph does."""

    @pytest.mark.parametrize(
        "name,hand_fn",
        [("resnet_block", spatial_seeds), ("small_transformer", transformer_seeds)],
    )
    def test_winner_validates_and_matches_or_beats_hand(self, name, hand_fn):
        graph = GRAPHS[name]()
        partitioner = make_partitioner("v07")
        config = SearchConfig(num_shards=4, seed=2021, seed_nodes="all", validate=True)
        result = search_partitioning(graph, config, partitioner)
        hand = partitioner.partition(
            graph, ShardingSpec.from_seeds(4, dict(hand_fn(graph, 4)))
        )
        assert result.best.total_seconds <= result.baseline.total_seconds
        assert result.best.total_seconds <= hand.total_seconds
        assert result.stats.plans_validated == 1
        assert result.validations[0].ok
        for plan in result.plans:
            assert 0.0 < plan.total_seconds < math.inf
            _assert_same_plan(plan, partitioner.partition(graph, plan.spec))
        replay = search_partitioning(graph, config, partitioner)
        assert [_plan_key(p) for p in replay.plans] == [_plan_key(p) for p in result.plans]


class TestSearchPlumbing:
    def test_describe(self):
        result = search_partitioning(
            resnet_block_graph(), SearchConfig(num_shards=2, seed=0)
        )
        text = result.describe()
        assert "best=" in text and "expanded" in text

    def test_num_shards_one_returns_baseline(self):
        result = search_partitioning(
            resnet_block_graph(), SearchConfig(num_shards=1, seed=0)
        )
        assert result.best.total_seconds == result.baseline.total_seconds
        assert result.speedup_vs_replicated == pytest.approx(1.0)

    def test_stats_counts(self):
        result = search_partitioning(
            resnet_block_graph(), SearchConfig(num_shards=4, seed=0)
        )
        s = result.stats
        assert s.candidates_expanded > 0
        assert s.rounds == len(seedable_nodes(resnet_block_graph(), "handles"))
        assert 0 <= s.candidates_pruned <= s.candidates_expanded

    def test_telemetry_counters(self, monkeypatch):
        monkeypatch.setattr(telemetry, "enabled", True)
        telemetry.reset()
        try:
            result = search_partitioning(
                resnet_block_graph(), SearchConfig(num_shards=2, seed=0)
            )
            m = telemetry.metrics
            assert m.total("spmd_search_runs") == 1
            assert (
                m.total("spmd_search_candidates_expanded")
                == result.stats.candidates_expanded
            )
            assert m.total("spmd_search_plans_returned") == len(result.plans)
        finally:
            telemetry.reset()

    def test_search_is_silent(self, recwarn):
        search_partitioning(
            resnet_block_graph(), SearchConfig(num_shards=2, seed=0)
        )
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


@pytest.mark.usefixtures("fresh_telemetry")
class TestOnePropagationPerLayout:
    """The search propagates each distinct layout once, from its beam
    parent's plan on -- and remembers nothing once it has returned."""

    def test_ssd_all_k2_counts_are_pinned(self):
        result = search_partitioning(
            ssd_graph(), SearchConfig(num_shards=2, seed=0, seed_nodes="all")
        )
        total = telemetry.metrics.total
        assert result.stats.candidates_expanded == total("spmd_search_candidates_expanded") == 493
        assert result.stats.candidates_pruned == total("spmd_search_candidates_pruned") == 384
        # Extending a layout by "replicate" is the layout itself.
        assert 0 < total("spmd_search_partitions_run") < 493
        # Every pruned candidate is a split conv filter, refused at its
        # seed: only the baseline (68 nodes) and the feasible extensions,
        # each from its seed on, are walked -- by both passes.
        assert total("spmd_search_nodes_propagated") == 284
        assert total("spmd_search_nodes_priced") == 284

    def test_nothing_keyed_on_a_search_outlives_it(self, monkeypatch):
        graph = ssd_graph()
        config = SearchConfig(num_shards=4, seed=3, seed_nodes="all")
        tables = graph.tables()  # graph-only, built before the first search
        attributes = dict(vars(graph))
        fields = copy.deepcopy(dataclasses.asdict(tables))
        price_tables = []
        build = PriceTable.__init__

        def recorded(table, *args, **kwargs):
            build(table, *args, **kwargs)
            price_tables.append(weakref.ref(table))

        monkeypatch.setattr(PriceTable, "__init__", recorded)
        runs = []
        for _ in range(2):
            before = telemetry.metrics.total("spmd_search_partitions_run")
            result = search_partitioning(graph, config)
            runs.append(telemetry.metrics.total("spmd_search_partitions_run") - before)
            assert price_tables
            del result
            gc.collect()
            # Prices depend on k, features and rates: the search's table dies
            # with its result, and the graph carries nothing new.
            assert all(ref() is None for ref in price_tables)
            assert vars(graph).keys() == attributes.keys()
            assert all(vars(graph)[name] is value for name, value in attributes.items())
            assert dataclasses.asdict(tables) == fields
        assert runs[0] == runs[1] > 0

    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(sorted(GRAPHS)),
        k=st.sampled_from([2, 4, 8]),
        nodes=st.sampled_from(["handles", "all"]),
        features=st.sampled_from(["v06", "v07"]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_every_returned_plan_equals_a_fresh_partition(
        self, name, k, nodes, features, seed
    ):
        partitioner = make_partitioner(features)
        result = search_partitioning(
            GRAPHS[name](),
            SearchConfig(num_shards=k, seed=seed, seed_nodes=nodes, beam_width=4),
            partitioner,
        )
        for plan in result.plans + (result.baseline,):
            fresh = partitioner.partition(plan.graph, plan.spec)
            assert fresh is not plan
            _assert_same_plan(plan, fresh)


def _assert_same_plan(plan, fresh):
    """Field for field, floats to the bit, lists in order."""
    assert plan.spec == fresh.spec
    assert plan.shardings == fresh.shardings
    assert plan.compute_shardings == fresh.compute_shardings
    assert plan.comm_ops == fresh.comm_ops
    assert plan.serial_nodes == fresh.serial_nodes
    assert plan.partitioned == fresh.partitioned
    for field in ("compute_seconds", "serial_seconds", "comm_seconds", "comm_bytes"):
        assert getattr(plan.cost, field).hex() == getattr(fresh.cost, field).hex()


def computed_filter_graph() -> Graph:
    """Conv filters that are computed values, beside one read directly.

    ``w_act`` is a parameter read through an elementwise op, so it is no
    seed-time refusal candidate: a split of it fails only at the conv, a
    partial of it is all-reduced first and passes.  ``w_direct`` is also
    read by an elementwise op before its conv, so a partial seed on it is
    all-reduced before the conv sees it.
    """
    g = Graph("computed_filters")
    x = g.input((1, 8, 8, 4), name="x")
    w_act = g.parameter((3, 3, 4, 4), name="w_act")
    w_direct = g.parameter((3, 3, 4, 4), name="w_direct")
    g.elementwise(w_direct, name="w_direct_norm")
    y = g.conv2d(x, g.elementwise(w_act, name="w_act_fn"), name="conv_act")
    g.conv2d(y, w_direct, name="conv_direct")
    return g


#: Every graph ``plan_query`` searches (the transformer at its bench size),
#: plus filters that are computed values.
EXTEND_GRAPHS = [
    resnet_block_graph,
    small_transformer,
    functools.partial(transformer_block_graph, seq=27),
    ssd_graph,
    maskrcnn_graph,
    computed_filter_graph,
]


class TestExtend:
    """``Partitioner.extend`` resumes propagation and pricing at the new
    seed; the result must be the plan a pass over the whole graph
    produces, or the failure that pass raises."""

    @settings(max_examples=60, deadline=None)
    @given(
        build=st.sampled_from(EXTEND_GRAPHS),
        k=st.sampled_from([1, 2, 4, 8]),
        features=st.sampled_from(["v06", "v07"]),
        data=st.data(),
    )
    def test_extend_equals_partition_or_fails_the_same_way(
        self, build, k, features, data
    ):
        graph = build()
        partitioner = make_partitioner(features)
        plan = partitioner.partition(graph, ShardingSpec.replicated(k))
        filters = {n.inputs[1] for n in graph.nodes if n.op == "conv2d"}
        # Any node may be seeded, in any order: a seed on a computed value
        # is ignored by propagation, a later seed may precede an earlier one.
        # Conv filters, computed or not, come first half of the time.
        order = data.draw(st.permutations(range(len(graph.nodes))))
        if data.draw(st.booleans()):
            order = sorted(order, key=lambda i: i not in filters)
        for node_id in order[: data.draw(st.integers(1, 4))]:
            node = graph.node(node_id)
            sharding = data.draw(st.sampled_from([
                Sharding.replicate(k),
                Sharding.partial_sum(k),
                *(Sharding.split(k, d) for d in range(len(node.shape))),
            ]))
            spec = ShardingSpec(k, plan.spec.assignments + ((node_id, sharding),))
            try:
                fresh = partitioner.partition(graph, spec)
            except (NotImplementedError, ValueError, KeyError) as exc:
                with pytest.raises(type(exc)):
                    partitioner.extend(plan, node_id, sharding)
                break
            before = (dict(plan.shardings), list(plan.comm_ops), set(plan.serial_nodes))
            extended = partitioner.extend(plan, node_id, sharding)
            _assert_same_plan(extended, fresh)
            # The parent plan is read, never written.
            assert before == (plan.shardings, plan.comm_ops, plan.serial_nodes)
            plan = extended

    @pytest.mark.parametrize("k", [1, 2, 8])
    def test_split_filter_seeds_are_refused_only_where_the_pass_fails(self, k):
        graph = computed_filter_graph()
        v07 = make_partitioner("v07")
        plan = v07.partition(graph, ShardingSpec.replicated(k))
        ids = graph.tables().ids_by_name
        assert graph.tables().conv_filter_seeds == {ids["w_direct"]}
        split = Sharding.split(k, 3)
        if k == 1:  # every seed is ignored at one shard
            for name in ("w_direct", "w_act", "w_act_fn"):
                v07.extend(plan, ids[name], split)
            return
        with pytest.raises(NotImplementedError) as refused:
            v07.extend(plan, ids["w_direct"], split)
        assert refused.value.nodes_visited == 0  # refused at the seed
        with pytest.raises(NotImplementedError) as walked:
            v07.extend(plan, ids["w_act"], split)
        assert walked.value.nodes_visited == ids["conv_act"] - ids["w_act"] + 1
        # Computed filters ignore seeds; a partial filter is all-reduced
        # by its earlier elementwise reader before the conv reads it.
        v07.extend(plan, ids["w_act_fn"], split)
        v07.extend(plan, ids["w_direct"], Sharding.partial_sum(k))

    def test_prefix_sums_are_not_part_of_the_cost(self):
        graph = ssd_graph()
        v07 = make_partitioner("v07")
        plan = v07.partition(graph, ShardingSpec.replicated(2))
        cost = plan.cost
        assert cost.prefix is not None
        assert len(cost.prefix.compute) == len(graph.nodes) + 1
        assert len(cost.prefix.comm) == len(plan.comm_ops) + 1
        bare = PartitionCost(
            cost.compute_seconds, cost.serial_seconds, cost.comm_seconds, cost.comm_bytes
        )
        assert bare == cost and hash(bare) == hash(cost)
        assert repr(bare) == repr(cost) and "prefix" not in repr(cost)

    def test_parent_without_prefix_sums_is_refused(self):
        """A bare cost has no running sums to resume the walk from."""
        v07 = make_partitioner("v07")
        plan = v07.partition(transformer_block_graph(seq=27), ShardingSpec.replicated(4))
        c = plan.cost
        bare = dataclasses.replace(plan, cost=PartitionCost(
            c.compute_seconds, c.serial_seconds, c.comm_seconds, c.comm_bytes
        ))
        with pytest.raises(ValueError, match="prefix"):
            v07.extend(bare, 9, Sharding.split(4, 1))

    def test_extend_checks_what_partition_checks(self):
        graph = resnet_block_graph()
        v07 = make_partitioner("v07")
        plan = v07.partition(graph, ShardingSpec.replicated(4))
        with pytest.raises(ValueError):  # shard count of the spec
            v07.extend(plan, 0, Sharding.split(2, 1))
        with pytest.raises(ValueError):  # unknown node id (ShapeError)
            v07.extend(plan, len(graph.nodes), Sharding.split(4, 0))
        once = v07.extend(plan, 0, Sharding.split(4, 1))
        with pytest.raises(ValueError):  # one layout per tensor
            v07.extend(once, 0, Sharding.split(4, 2))
        with pytest.raises(ValueError):  # another compiler's plan
            make_partitioner("v06").extend(plan, 0, Sharding.split(4, 1))
        # Prefix sums summed at other prices would leak into the child.
        for foreign in (
            make_partitioner("v07", mxu_efficiency=0.5),
            make_partitioner("v07", mesh=TorusMesh(4, 4, chip=TPU_V2)),
        ):
            with pytest.raises(ValueError):
                foreign.extend(plan, 0, Sharding.split(4, 1))
        # The same prices on another mesh object are trusted.
        same = make_partitioner("v07", mesh=single_pod())
        _assert_same_plan(
            same.extend(plan, 0, Sharding.split(4, 1)),
            same.partition(graph, once.spec),
        )
