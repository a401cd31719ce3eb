"""SPMD partitioner tests: propagation rules and communication insertion."""

import pytest

from repro.spmd.annotations import Sharding
from repro.spmd.ir import Graph
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    resnet_block_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES, partition
from repro.spmd.plan import ShardingSpec, make_partitioner


def _plan(graph, seeds, k, features=V07_FEATURES):
    """Partition through the supported facade; returns the PartitionPlan."""
    return make_partitioner(features).partition(
        graph, ShardingSpec.from_seeds(k, dict(seeds))
    )


class TestAnnotations:
    def test_classmethod_constructors(self):
        assert Sharding.replicate(4).replicated
        assert Sharding.split(4, 1).dim == 1
        assert Sharding.partial_sum(4).partial

    def test_tile_fraction(self):
        assert Sharding.replicate(4).tile_fraction() == 1.0
        assert Sharding.split(4, 0).tile_fraction() == 0.25

    def test_invalid(self):
        with pytest.raises(ValueError):
            Sharding(num_shards=0)
        with pytest.raises(ValueError):
            Sharding(num_shards=2, dim=1, partial=True)
        with pytest.raises(ValueError):
            Sharding.split(4, -1)

    def test_describe(self):
        assert "replicated" in Sharding.replicate(2).describe()
        assert "split" in Sharding.split(2, 0).describe()
        assert "partial" in Sharding.partial_sum(2).describe()


class TestDeprecatedEntryPoints:
    """The deprecation layer is gone: the module-level ``partition`` is the
    pass the facade calls, and neither warns (test ids kept from when the
    former did)."""

    def test_partition_warns_and_agrees_with_facade(self):
        g = transformer_block_graph()
        seeds = transformer_seeds(g, 4)
        pg = partition(g, seeds, 4)
        plan = _plan(g, seeds, 4)
        assert pg.shardings == plan.shardings
        assert pg.comm_ops == plan.comm_ops
        assert pg.serial_nodes == plan.serial_nodes

    def test_facade_path_is_silent(self, recwarn):
        g = transformer_block_graph()
        _plan(g, transformer_seeds(g, 4), 4)
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]


class TestShardingSpec:
    def test_validates_shard_counts(self):
        with pytest.raises(ValueError, match="shards"):
            ShardingSpec(num_shards=4, assignments=((0, Sharding.split(2, 0)),))

    def test_rejects_duplicates_and_bad_keys(self):
        s = Sharding.split(2, 0)
        with pytest.raises(ValueError, match="duplicate"):
            ShardingSpec(num_shards=2, assignments=((0, s), (0, s)))
        with pytest.raises(TypeError):
            ShardingSpec(num_shards=2, assignments=(((1, 2), s),))

    def test_resolves_handles_names_and_ids(self):
        g = transformer_block_graph()
        k = 2
        by_handle = ShardingSpec(
            num_shards=k, assignments=(("ffn_w1", Sharding.split(k, 1)),)
        ).resolve(g)
        by_id = ShardingSpec(
            num_shards=k,
            assignments=((g.handles["ffn_w1"], Sharding.split(k, 1)),),
        ).resolve(g)
        assert by_handle == by_id

    def test_unknown_reference_raises(self):
        g = transformer_block_graph()
        spec = ShardingSpec(
            num_shards=2, assignments=(("nope", Sharding.split(2, 0)),)
        )
        with pytest.raises(KeyError, match="nope"):
            spec.resolve(g)

    def test_make_partitioner_validates(self):
        with pytest.raises(ValueError, match="feature set"):
            make_partitioner("v08")
        with pytest.raises(ValueError, match="mxu"):
            make_partitioner("v07", mxu_efficiency=0.0)
        assert make_partitioner("v06").features == V06_FEATURES


class TestConvPropagation:
    def _graph(self):
        g = Graph()
        x = g.input((1, 64, 64, 3), name="image")
        w = g.parameter((3, 3, 3, 16))
        y = g.conv2d(x, w)
        g.handles = {"image": x, "y": y}
        return g

    def test_spatial_split_propagates_with_halo(self):
        g = self._graph()
        plan = _plan(g, {g.handles["image"]: Sharding.split(4, 1)}, 4)
        assert plan.shardings[g.handles["y"]].dim == 1
        halos = [c for c in plan.comm_ops if c.kind == "halo"]
        assert len(halos) == 1
        # 2 sides x 1 halo row x 64 cols x 3 channels x 2 bytes.
        assert halos[0].bytes_per_shard == pytest.approx(2 * 1 * 64 * 3 * 2)

    def test_1x1_conv_no_halo(self):
        g = Graph()
        x = g.input((1, 64, 64, 8), name="image")
        w = g.parameter((1, 1, 8, 16))
        g.conv2d(x, w)
        plan = _plan(g, {x: Sharding.split(4, 1)}, 4)
        assert not [c for c in plan.comm_ops if c.kind == "halo"]

    def test_batch_split_free(self):
        g = self._graph()
        plan = _plan(g, {g.handles["image"]: Sharding.split(4, 0)}, 4)
        assert plan.comm_ops == []
        assert plan.shardings[g.handles["y"]].dim == 0

    def test_replicated_conv(self):
        g = self._graph()
        plan = _plan(g, {}, 4)
        assert plan.shardings[g.handles["y"]].replicated
        assert plan.comm_ops == []

    def test_v06_halo_pays_double_steps(self):
        v07 = _plan(self._graph(), {0: Sharding.split(4, 1)}, 4, V07_FEATURES)
        v06 = _plan(self._graph(), {0: Sharding.split(4, 1)}, 4, V06_FEATURES)
        h07 = [c for c in v07.comm_ops if c.kind == "halo"][0]
        h06 = [c for c in v06.comm_ops if c.kind == "halo"][0]
        assert h06.steps == 2 * h07.steps


class TestMatmulPropagation:
    def test_contracting_split_yields_partial(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        y = g.matmul(a, b)
        plan = _plan(g, {b: Sharding.split(4, 0)}, 4)
        assert plan.compute_shardings[y].partial

    def test_partial_resolved_with_allreduce_at_use(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        y = g.matmul(a, b)
        g.elementwise(y, "relu")
        plan = _plan(g, {b: Sharding.split(4, 0)}, 4)
        ars = [c for c in plan.comm_ops if c.kind == "all_reduce"]
        assert len(ars) == 1
        assert ars[0].node_id == y
        assert plan.shardings[y].replicated  # after resolution
        assert plan.compute_shardings[y].partial  # at compute time

    def test_output_column_split(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 8))
        y = g.matmul(a, b)
        plan = _plan(g, {b: Sharding.split(4, 1)}, 4)
        assert plan.shardings[y].dim == 1
        assert plan.comm_ops == []

    def test_row_split_of_activation(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 8))
        y = g.matmul(a, b)
        plan = _plan(g, {a: Sharding.split(4, 0)}, 4)
        assert plan.shardings[y].dim == 0


class TestGatherTopk:
    def _graph(self):
        g = Graph()
        scores = g.input((1, 1024), name="scores")
        top = g.topk(scores, 16)
        g.gather(top, 16, 64)
        g.handles = {"scores": scores, "top": top}
        return g

    def test_v07_partitions_both(self):
        g = self._graph()
        plan = _plan(g, {g.handles["scores"]: Sharding.split(4, 1)}, 4)
        assert not plan.serial_nodes

    def test_v06_serializes_both(self):
        g = self._graph()
        plan = _plan(
            g, {g.handles["scores"]: Sharding.split(4, 1)}, 4, V06_FEATURES
        )
        assert len(plan.serial_nodes) == 2
        gathers = [c for c in plan.comm_ops if c.kind == "all_gather"]
        assert gathers  # the sharded operand had to be gathered


class TestDtypes:
    def test_nodes_carry_graph_dtype(self):
        g = Graph(dtype_bytes=4)
        x = g.input((8, 8))
        assert g.node(x).dtype_bytes == 4
        assert g.node(x).output_bytes() == 8 * 8 * 4

    def test_per_node_override(self):
        g = Graph()  # bf16 default
        x = g.input((8, 8))
        loss = g.reduce(x, dtype_bytes=4)  # f32 accumulator
        assert g.node(x).dtype_bytes == 2
        assert g.node(loss).dtype_bytes == 4

    def test_comm_bytes_follow_node_dtype(self):
        def graph_with(dtype_bytes):
            g = Graph(dtype_bytes=dtype_bytes)
            a = g.input((8, 16))
            b = g.parameter((16, 4))
            y = g.matmul(a, b)
            g.elementwise(y, "relu")
            return g, b

        g2, b2 = graph_with(2)
        g4, b4 = graph_with(4)
        ar2 = _plan(g2, {b2: Sharding.split(4, 0)}, 4).comm_ops[0]
        ar4 = _plan(g4, {b4: Sharding.split(4, 0)}, 4).comm_ops[0]
        assert ar4.bytes_per_shard == 2 * ar2.bytes_per_shard

    def test_inconsistent_explicit_dtype_raises(self):
        g = Graph(dtype_bytes=2)
        g.input((4, 4))
        g.reduce(0, dtype_bytes=4)
        with pytest.raises(ValueError, match="inconsistent"):
            partition(g, {}, 2, V07_FEATURES, dtype_bytes=2)

    def test_graph_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            Graph(dtype_bytes=0)


class TestTrivialAndErrors:
    def test_num_shards_one_all_replicated(self):
        g = ssd_graph()
        plan = _plan(g, {}, 1)
        assert all(s.replicated for s in plan.shardings.values())
        assert plan.comm_ops == []

    def test_seed_shard_count_mismatch(self):
        g = Graph()
        x = g.input((4, 4))
        with pytest.raises(ValueError, match="shards"):
            _plan(g, {x: Sharding.split(2, 0)}, 4)

    def test_invalid_num_shards(self):
        with pytest.raises(ValueError):
            ShardingSpec(num_shards=0)

    def test_comm_accounting_helpers(self):
        g = transformer_block_graph()
        plan = _plan(g, transformer_seeds(g, 4), 4)
        by_kind = plan.partitioned.comm_by_kind()
        assert plan.partitioned.comm_bytes() == pytest.approx(
            sum(by_kind.values())
        )
        assert "all_reduce" in by_kind


class TestModelGraphs:
    def test_ssd_builds_and_partitions(self):
        g = ssd_graph()
        plan = _plan(g, spatial_seeds(g, 8), 8)
        assert any(c.kind == "halo" for c in plan.comm_ops)

    def test_maskrcnn_builds_and_partitions(self):
        g = maskrcnn_graph()
        plan = _plan(g, spatial_seeds(g, 8), 8)
        assert any(c.kind == "halo" for c in plan.comm_ops)

    def test_resnet_block_builds_and_partitions(self):
        g = resnet_block_graph()
        plan = _plan(g, spatial_seeds(g, 4), 4)
        assert any(c.kind == "halo" for c in plan.comm_ops)

    def test_transformer_feature_sharding_inserts_allreduce(self):
        g = transformer_block_graph()
        plan = _plan(g, transformer_seeds(g, 4), 4)
        ars = [c for c in plan.comm_ops if c.kind == "all_reduce"]
        # embedding (vocab-contracting), attention out proj, ffn_mm2.
        assert len(ars) >= 3

    def test_spatial_seeds_identity_at_one(self):
        g = ssd_graph()
        assert spatial_seeds(g, 1) == {}
