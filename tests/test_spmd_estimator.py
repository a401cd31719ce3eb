"""SPMD cost estimator tests: tile factors, comm-op prices and speedup curves."""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.cost import all_gather_time, point_to_point_time, ring_all_reduce_time
from repro.hardware.topology import single_pod
from repro.spmd.annotations import Sharding
from repro.spmd.estimator import _tile_factor, comm_op_seconds
from repro.spmd.ir import Graph
from repro.spmd.modelgraphs import (
    maskrcnn_graph,
    spatial_seeds,
    ssd_graph,
    transformer_block_graph,
    transformer_seeds,
)
from repro.spmd.partitioner import V06_FEATURES, V07_FEATURES
from repro.spmd.plan import ShardingSpec, make_partitioner, model_parallel_speedup


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


class TestCommOpPrice:
    """Every comm op is priced by one :mod:`repro.comm.cost` call; only the
    all-reduce's latency moved when the inline terms went (it is now paid
    once per phase)."""

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(("all_reduce", "all_gather", "halo", "reshard")),
        k=st.integers(2, 16),
        nbytes=st.floats(1.0, 1e10),
        bw=st.floats(1e8, 1e12),
        alpha=st.floats(0.0, 1e-4),
    )
    def test_price_is_the_comm_cost_call(self, kind, k, nbytes, bw, alpha):
        expected = {
            "all_reduce": lambda: ring_all_reduce_time(k, nbytes, bw, alpha, closed=False),
            "all_gather": lambda: all_gather_time(k, nbytes, bw, alpha, closed=False),
            "halo": lambda: point_to_point_time(nbytes / 2.0, bw, alpha),
            "reshard": lambda: point_to_point_time(nbytes, bw, alpha),
        }[kind]()
        price = comm_op_seconds(kind, nbytes, k, bw, alpha)
        assert price.hex() == expected.hex()
        if kind == "all_reduce":
            return
        # The estimator's inline terms before it priced through comm.cost.
        frac = (k - 1) / k
        inline = {
            "all_gather": lambda: (1.0 * frac) * nbytes / bw + (k - 1) * alpha,
            "halo": lambda: alpha + (nbytes / 2.0) / bw,
            "reshard": lambda: alpha + nbytes / bw,
        }[kind]()
        assert price.hex() == inline.hex()

    def test_unknown_kind_is_refused(self):
        with pytest.raises(ValueError, match="unknown comm op kind"):
            comm_op_seconds("broadcast", 1.0, 4, 1e9, 1e-6)

    def test_walk_charges_each_logged_op_its_price(self):
        """The comm seconds are ``steps x`` each op's price, in log order,
        doubled for the backward pass."""
        g = ssd_graph()
        plan = _plan(g, spatial_seeds(g, 4), 4)
        mesh = single_pod()
        bw, alpha = mesh.link_bandwidth, mesh.chip.link_latency
        comm = 0.0
        for kind, _, nbytes, steps in plan.partitioned.comm:
            comm += steps * comm_op_seconds(kind, nbytes, 4, bw, alpha)
        assert plan.cost.comm_seconds.hex() == (comm * 2.0).hex()


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
