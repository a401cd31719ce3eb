"""Alpha-beta cost formula tests."""

import pytest

from repro.comm.cost import (
    all_gather_time,
    reduce_scatter_time,
    ring_all_reduce_time,
    ring_cost_for,
)
from repro.hardware.rings import model_peer_ring, x_line, y_ring
from repro.hardware.topology import multipod, slice_for_chips

BW = 70e9
ALPHA = 1e-6


class TestReduceScatter:
    def test_single_member_free(self):
        assert reduce_scatter_time(1, 1e6, BW, ALPHA) == 0.0

    def test_zero_payload_free(self):
        assert reduce_scatter_time(8, 0.0, BW, ALPHA) == 0.0

    def test_closed_ring_formula(self):
        t = reduce_scatter_time(32, 1e8, BW, ALPHA, closed=True)
        expected = (31 / 32) * 1e8 / (2 * BW) + 31 * ALPHA
        assert t == pytest.approx(expected)

    def test_open_line_twice_the_bandwidth_term(self):
        closed = reduce_scatter_time(32, 1e8, BW, 0.0, closed=True)
        open_ = reduce_scatter_time(32, 1e8, BW, 0.0, closed=False)
        assert open_ == pytest.approx(2 * closed)

    def test_bandwidth_term_scale_free(self):
        """The key scaling fact: ring time converges as n grows."""
        t64 = reduce_scatter_time(64, 1e8, BW, 0.0)
        t4096 = reduce_scatter_time(4096, 1e8, BW, 0.0)
        assert t4096 < 1.02 * t64

    def test_latency_term_grows_linearly(self):
        t8 = reduce_scatter_time(8, 0.0, BW, ALPHA) if False else None
        a = reduce_scatter_time(8, 1.0, BW, ALPHA)
        b = reduce_scatter_time(16, 1.0, BW, ALPHA)
        assert b - a == pytest.approx((15 - 7) * ALPHA, rel=1e-3)

    def test_hop_links_multiply_latency(self):
        single = reduce_scatter_time(8, 1e6, BW, ALPHA, hop_links=1)
        quad = reduce_scatter_time(8, 1e6, BW, ALPHA, hop_links=4)
        assert quad - single == pytest.approx(7 * 3 * ALPHA)

    def test_bandwidth_fraction(self):
        full = reduce_scatter_time(8, 1e8, BW, 0.0)
        quarter = reduce_scatter_time(8, 1e8, BW, 0.0, bandwidth_fraction=0.25)
        assert quarter == pytest.approx(4 * full)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            reduce_scatter_time(0, 1e6, BW, ALPHA)
        with pytest.raises(ValueError):
            reduce_scatter_time(8, -1, BW, ALPHA)
        with pytest.raises(ValueError):
            reduce_scatter_time(8, 1e6, 0, ALPHA)
        with pytest.raises(ValueError):
            reduce_scatter_time(8, 1e6, BW, ALPHA, bandwidth_fraction=0)


class TestAllGatherAndAllReduce:
    def test_all_gather_equals_reduce_scatter(self):
        assert all_gather_time(16, 1e7, BW, ALPHA) == pytest.approx(
            reduce_scatter_time(16, 1e7, BW, ALPHA)
        )

    def test_all_reduce_is_two_phases(self):
        assert ring_all_reduce_time(16, 1e7, BW, ALPHA) == pytest.approx(
            2 * reduce_scatter_time(16, 1e7, BW, ALPHA)
        )


class TestRingCostFor:
    def test_y_ring_params(self):
        mesh = slice_for_chips(512)  # 16x32, wrap_y
        c = ring_cost_for(mesh, y_ring(mesh, 0))
        assert c.num_members == 32
        assert c.closed
        assert c.latency == mesh.chip.link_latency

    def test_multipod_x_line_sees_cross_pod_latency(self):
        mesh = multipod(4)
        c = ring_cost_for(mesh, x_line(mesh, 0))
        assert not c.closed
        assert c.latency == mesh.chip.cross_pod_link_latency

    def test_peer_ring_hops(self):
        mesh = slice_for_chips(1024)
        c = ring_cost_for(mesh, model_peer_ring(mesh, 0, 4, 0))
        assert c.hop_links == 4
        assert c.num_members == 8
