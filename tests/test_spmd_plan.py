"""Tests for the repro.spmd facade (plan.py) and the graph executor."""

import functools

import numpy as np
import pytest

from repro.hardware.topology import TorusMesh
from repro.spmd import (
    ExecutionUnsupported,
    PartitionPlan,
    Sharding,
    ShardingSpec,
    ValidationResult,
    execute_plan,
    execute_reference,
    make_inputs,
    make_partitioner,
    validate_plan,
)
from repro.spmd.ir import Graph
from repro.spmd.modelgraphs import (
    resnet_block_graph,
    spatial_seeds,
    transformer_block_graph,
    transformer_seeds,
)

#: shapes small enough that all sums stay integer-exact in float64.
small_transformer = functools.partial(
    transformer_block_graph, seq=16, hidden=32, ffn=64, vocab=128
)


class TestPartitionPlan:
    def _plan(self, k=4):
        g = transformer_block_graph()
        return make_partitioner("v07").partition(
            g, ShardingSpec.from_seeds(k, dict(transformer_seeds(g, k)))
        )

    def test_properties_mirror_partitioned_graph(self):
        plan = self._plan()
        assert plan.num_shards == 4
        assert plan.shardings == plan.partitioned.shardings
        assert plan.compute_shardings == plan.partitioned.compute_shardings
        assert plan.comm_ops == plan.partitioned.comm_ops
        assert plan.serial_nodes == plan.partitioned.serial_nodes
        assert plan.total_seconds == plan.cost.total_seconds

    def test_plan_is_frozen(self):
        plan = self._plan()
        with pytest.raises(AttributeError):
            plan.cost = None

    def test_describe(self):
        text = self._plan().describe()
        assert "k=4" in text
        assert "comm_ops=" in text

    def test_spec_describe(self):
        spec = ShardingSpec.from_seeds(2, {"w": Sharding.split(2, 0)})
        assert "w=split" in spec.describe()
        assert "replicated" in ShardingSpec.replicated(2).describe()

    def test_mesh_is_bound_into_cost(self):
        g1, g2 = transformer_block_graph(), transformer_block_graph()
        spec = ShardingSpec.from_seeds(4, dict(transformer_seeds(g1, 4)))
        default = make_partitioner("v07").partition(g1, spec)
        slow = make_partitioner(
            "v07", mesh=TorusMesh(2, 2), mxu_efficiency=0.1
        ).partition(g2, spec)
        assert slow.cost.compute_seconds > default.cost.compute_seconds


class TestMakeInputs:
    def test_deterministic_and_integer_valued(self):
        g = resnet_block_graph()
        a = make_inputs(g, seed=7)
        b = make_inputs(g, seed=7)
        c = make_inputs(g, seed=8)
        assert set(a) == {
            n.id for n in g.nodes if n.op in ("input", "parameter")
        }
        for nid in a:
            assert a[nid].dtype == np.float64
            assert np.array_equal(a[nid], np.round(a[nid]))
            assert np.array_equal(a[nid], b[nid])
        assert any(not np.array_equal(a[nid], c[nid]) for nid in a)

    def test_shapes_match_graph(self):
        g = small_transformer()
        for nid, arr in make_inputs(g).items():
            assert arr.shape == g.node(nid).shape


class TestExecuteReference:
    def test_matches_hand_computation(self):
        g = Graph()
        a = g.input((2, 3))
        b = g.parameter((3, 2))
        y = g.matmul(a, b)
        r = g.elementwise(y, "relu")
        loss = g.reduce(r)
        inputs = make_inputs(g, seed=0)
        vals = execute_reference(g, inputs)
        want = np.maximum(inputs[a] @ inputs[b], 0.0)
        assert np.array_equal(vals[r], want)
        assert vals[loss] == np.sum(want)

    def test_stride2_conv_unsupported(self):
        g = Graph()
        x = g.input((1, 8, 8, 2))
        w = g.parameter((3, 3, 2, 2))
        g.conv2d(x, w, stride=2)
        with pytest.raises(ExecutionUnsupported):
            execute_reference(g, make_inputs(g))


class TestExecutePlan:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_resnet_block_bit_exact(self, k):
        g = resnet_block_graph()
        plan = make_partitioner("v07").partition(
            g, ShardingSpec.from_seeds(k, dict(spatial_seeds(g, k)))
        )
        result = validate_plan(plan, seed=3)
        assert result.ok, result.describe()
        assert result.num_nodes == len(g.nodes)

    @pytest.mark.parametrize("features", ["v06", "v07"])
    @pytest.mark.parametrize("k", [2, 4])
    def test_small_transformer_bit_exact(self, features, k):
        g = small_transformer()
        plan = make_partitioner(features).partition(
            g, ShardingSpec.from_seeds(k, dict(transformer_seeds(g, k)))
        )
        result = validate_plan(plan, seed=1)
        assert result.ok, result.describe()

    def test_executed_values_match_reference_exactly(self):
        g = small_transformer()
        plan = make_partitioner("v07").partition(
            g, ShardingSpec.from_seeds(2, dict(transformer_seeds(g, 2)))
        )
        inputs = make_inputs(g, seed=0)
        ref = execute_reference(g, inputs)
        got = execute_plan(plan, inputs)
        assert set(ref) == set(got)
        for nid in ref:
            assert np.array_equal(ref[nid], got[nid]), g.node(nid).name

    def test_contracting_matmul_partial_sums_exact(self):
        g = Graph()
        a = g.input((8, 16))
        b = g.parameter((16, 4))
        y = g.matmul(a, b)
        g.elementwise(y, "relu")
        plan = make_partitioner("v07").partition(
            g, ShardingSpec(num_shards=4, assignments=((b, Sharding.split(4, 0)),))
        )
        assert plan.compute_shardings[y].partial
        assert validate_plan(plan).ok

    def test_validation_result_describe(self):
        good = ValidationResult(ok=True, num_nodes=5)
        bad = ValidationResult(ok=False, num_nodes=5, mismatched_nodes=("x",))
        assert "bit-exact" in good.describe()
        assert "MISMATCH" in bad.describe()


class TestSharedValues:
    def test_sharding_constructors_return_interned_instances(self):
        assert Sharding.replicate(4) is Sharding.replicate(4)
        assert Sharding.split(4, 1) is Sharding.split(4, 1)
        assert Sharding.partial_sum(4) is Sharding.partial_sum(4)
        assert Sharding.split(4, 1) is not Sharding.split(4, 2)
        # ...equal to, and hashing like, a directly constructed one.
        assert Sharding.split(4, 1) == Sharding(4, dim=1)
        assert hash(Sharding.partial_sum(2)) == hash(Sharding(2, partial=True))
        with pytest.raises(ValueError):
            Sharding.split(4, -1)
        with pytest.raises(ValueError):
            Sharding.replicate(0)

    def test_resolve_builds_no_name_map_for_integer_references(self, monkeypatch):
        g = resnet_block_graph()
        spec = ShardingSpec(4, ((0, Sharding.split(4, 1)), ("image", Sharding.split(4, 2))))
        with pytest.raises(ValueError, match="resolve to node 0"):
            spec.resolve(g)  # a handle and an id naming one tensor
        monkeypatch.setattr(Graph, "tables", lambda self: pytest.fail("name map built"))
        assert ShardingSpec(4, ((0, Sharding.split(4, 1)),)).resolve(g) == {
            0: Sharding.split(4, 1)
        }
        assert ShardingSpec(4, (("image", Sharding.split(4, 1)),)).resolve(g) == {
            0: Sharding.split(4, 1)
        }
