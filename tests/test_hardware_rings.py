"""Ring construction tests (Figure 4's three ring families)."""

import pytest

from repro.hardware.rings import (
    Ring,
    all_x_lines,
    all_y_rings,
    model_group,
    model_peer_ring,
    x_line,
    y_ring,
)
from repro.hardware.topology import Coordinate, TorusMesh


class TestRing:
    def test_needs_two_members(self):
        with pytest.raises(ValueError):
            Ring((Coordinate(0, 0),), closed=True)

    def test_distinct_members(self):
        with pytest.raises(ValueError):
            Ring((Coordinate(0, 0), Coordinate(0, 0)), closed=True)

    def test_segments_closed_vs_open(self, small_torus, small_mesh):
        closed = y_ring(small_torus, 0)
        assert len(closed.segments(small_torus)) == 4
        open_ = y_ring(small_mesh, 0)
        assert len(open_.segments(small_mesh)) == 3


class TestYRings:
    def test_y_ring_membership(self, the_multipod):
        r = y_ring(the_multipod, 5)
        assert r.size == 32
        assert r.closed  # Y wraps on the multipod
        assert all(c.x == 5 for c in r.members)

    def test_all_y_rings_disjoint_links(self, small_torus):
        rings = all_y_rings(small_torus)
        seen = set()
        for ring in rings:
            for segment in ring.segments(small_torus):
                for link in segment:
                    key = (link.src, link.dst)
                    assert key not in seen
                    seen.add(key)

    def test_column_out_of_range(self, small_torus):
        with pytest.raises(ValueError):
            y_ring(small_torus, 99)


class TestXLines:
    def test_x_line_open_on_multipod(self, the_multipod):
        r = x_line(the_multipod, 0)
        assert r.size == 128
        assert not r.closed

    def test_x_line_closed_on_single_pod(self, pod):
        assert x_line(pod, 0).closed

    def test_all_x_lines_count(self, the_multipod):
        assert len(all_x_lines(the_multipod)) == 32


class TestModelPeerRings:
    def test_members_hop_over_peers(self, the_multipod):
        r = model_peer_ring(the_multipod, y=3, mp_size=4, peer_id=1)
        assert r.size == 128 // 4
        assert r.hop_stride == 4
        assert [c.x for c in r.members] == list(range(1, 128, 4))

    def test_segments_span_mp_links(self, pod):
        r = model_peer_ring(pod, y=0, mp_size=4, peer_id=0)
        segments = r.segments(pod)
        for seg in segments:
            assert len(seg) == 4  # hop over 3 model-parallel neighbors

    def test_peer_rings_cover_all_columns(self, pod):
        members = set()
        for p in range(4):
            members.update(model_peer_ring(pod, 0, 4, p).members)
        assert len(members) == pod.x_size

    def test_invalid_peer_id(self, pod):
        with pytest.raises(ValueError):
            model_peer_ring(pod, 0, 4, 4)

    def test_indivisible_mp_size(self, pod):
        with pytest.raises(ValueError):
            model_peer_ring(pod, 0, 5, 0)

    def test_needs_two_replicas(self):
        m = TorusMesh(4, 4)
        with pytest.raises(ValueError, match="2 replicas"):
            model_peer_ring(m, 0, 4, 0)


class TestModelGroup:
    def test_group_alignment(self, pod):
        g = model_group(pod, Coordinate(5, 7), 4)
        assert [c.x for c in g] == [4, 5, 6, 7]
        assert all(c.y == 7 for c in g)

    def test_group_of_one(self, pod):
        assert model_group(pod, Coordinate(3, 3), 1) == (Coordinate(3, 3),)

    def test_indivisible(self, pod):
        with pytest.raises(ValueError):
            model_group(pod, Coordinate(0, 0), 5)
