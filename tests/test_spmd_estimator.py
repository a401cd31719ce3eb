"""SPMD cost estimator tests: tile factors and speedup curves."""

import functools

import pytest

from repro.spmd.annotations import Sharding
from repro.spmd.estimator import (
    _tile_factor,
    estimate_cost,
    model_parallel_speedup,
)
from repro.spmd.ir import Graph
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES, partition
from repro.spmd.plan import ShardingSpec, make_partitioner


def _plan(graph, seeds, k, features=V07_FEATURES):
    return make_partitioner(features).partition(
        graph, ShardingSpec.from_seeds(k, dict(seeds))
    )


def _node(shape, op="conv2d"):
    g = Graph()
    if op == "conv2d":
        x = g.input((shape[0], shape[1], shape[2], shape[3]))
        w = g.parameter((3, 3, shape[3], shape[3]))
        return g.node(g.conv2d(x, w))
    x = g.input(shape)
    return g.node(x)


class TestTileFactor:
    def test_replicated_full(self):
        node = _node((1, 64, 64, 8))
        assert _tile_factor(node, Sharding.replicate(4)) == 1.0

    def test_partial_even(self):
        node = _node((1, 64, 64, 8))
        assert _tile_factor(node, Sharding.partial_sum(4)) == 0.25

    def test_even_spatial_split(self):
        node = _node((1, 64, 64, 8))
        assert _tile_factor(node, Sharding.split(4, 1)) == pytest.approx(16 / 64)

    def test_granule_floor(self):
        """Splitting 38 rows over 8 cores pads the 5-row tile to 8."""
        node = _node((1, 38, 38, 8))
        assert _tile_factor(node, Sharding.split(8, 1)) == pytest.approx(8 / 38)

    def test_split_cannot_exceed_full(self):
        node = _node((1, 4, 64, 8))
        assert _tile_factor(node, Sharding.split(8, 1)) <= 1.0


class TestEstimateCost:
    def test_unpartitioned_baseline(self):
        cost = _plan(ssd_graph(), {}, 1).cost
        assert cost.compute_seconds > 0
        assert cost.comm_seconds == 0.0

    def test_partitioned_cheaper_compute(self):
        g1, g2 = ssd_graph(), ssd_graph()
        base = _plan(g1, {}, 1).cost
        part = _plan(g2, spatial_seeds(g2, 4), 4).cost
        assert part.compute_seconds < base.compute_seconds
        assert part.comm_seconds > 0

    def test_total_and_fraction(self):
        g = ssd_graph()
        cost = _plan(g, spatial_seeds(g, 4), 4).cost
        assert cost.total_seconds == pytest.approx(
            cost.compute_seconds + cost.serial_seconds + cost.comm_seconds
        )
        assert 0.0 < cost.comm_fraction < 1.0

    def test_serial_nodes_charged_fully(self):
        g = Graph()
        scores = g.input((1, 4096), name="scores")
        g.topk(scores, 128)
        cost = _plan(
            g, {scores: Sharding.split(4, 1)}, 4, V06_FEATURES
        ).cost
        assert cost.serial_seconds > 0

    def test_legacy_estimate_cost_warns_and_agrees(self):
        g = ssd_graph()
        plan = _plan(g, spatial_seeds(g, 4), 4)
        assert estimate_cost(plan.partitioned) == plan.cost

    def test_legacy_partition_feeds_legacy_estimate(self):
        g = ssd_graph()
        cost = estimate_cost(partition(g, spatial_seeds(g, 4), 4))
        assert cost == _plan(ssd_graph(), spatial_seeds(g, 4), 4).cost


class TestSpeedupCurves:
    def test_monotone_speedups(self):
        sp = model_parallel_speedup(ssd_graph, spatial_seeds, [1, 2, 4, 8])
        assert sp[1] == pytest.approx(1.0)
        assert sp[1] < sp[2] < sp[4] < sp[8]

    def test_sublinear(self):
        sp = model_parallel_speedup(ssd_graph, spatial_seeds, [8])
        assert sp[8] < 8.0

    def test_maskrcnn_scales_better_than_ssd(self):
        """800x1333 images leave more spatial work per tile than 300x300."""
        ssd = model_parallel_speedup(ssd_graph, spatial_seeds, [8])[8]
        mrcnn = model_parallel_speedup(maskrcnn_graph, spatial_seeds, [8])[8]
        assert mrcnn > ssd

    def test_transformer_anchor(self):
        """Paper: ~2.3x on 4 cores; we accept the 2-3.2x band."""
        builder = functools.partial(transformer_block_graph, seq=27)
        sp = model_parallel_speedup(builder, transformer_seeds, [4])
        assert 2.0 < sp[4] < 3.2

    def test_v07_at_least_v06(self):
        for builder, seeds in ((ssd_graph, spatial_seeds),
                               (maskrcnn_graph, spatial_seeds)):
            v07 = model_parallel_speedup(builder, seeds, [8], features=V07_FEATURES)
            v06 = model_parallel_speedup(builder, seeds, [8], features=V06_FEATURES)
            assert v07[8] >= v06[8]

    def test_speedup_curves_are_warning_free(self, recwarn):
        model_parallel_speedup(ssd_graph, spatial_seeds, [2])
        assert not [
            w for w in recwarn.list if issubclass(w.category, DeprecationWarning)
        ]

    def test_invalid_core_count(self):
        with pytest.raises(ValueError):
            model_parallel_speedup(ssd_graph, spatial_seeds, [0])
