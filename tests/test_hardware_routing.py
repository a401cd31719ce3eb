"""Routing tests: the 1024-entry table constraint and sparse routing."""

import pytest

from repro.hardware.routing import (
    RoutingError,
    RoutingTable,
    build_dense_routing,
    build_sparse_row_col_routing,
    dimension_ordered_path,
    path_links,
    resolve_route,
)
from repro.hardware.topology import Coordinate, multipod, slice_for_chips


class TestDimensionOrderedPath:
    def test_straight_line(self, small_mesh):
        path = dimension_ordered_path(small_mesh, Coordinate(0, 0), Coordinate(3, 0))
        assert path == [Coordinate(x, 0) for x in range(4)]

    def test_x_then_y(self, small_mesh):
        path = dimension_ordered_path(small_mesh, Coordinate(0, 0), Coordinate(2, 2))
        assert path[0] == Coordinate(0, 0)
        assert path[-1] == Coordinate(2, 2)
        # X moves complete before Y moves.
        xs = [c.x for c in path]
        assert xs == sorted(xs)

    def test_wrap_shortcut_taken(self, small_torus):
        path = dimension_ordered_path(small_torus, Coordinate(0, 0), Coordinate(3, 0))
        assert len(path) == 2  # one wrap hop, not three mesh hops

    def test_self_path(self, small_mesh):
        assert dimension_ordered_path(small_mesh, Coordinate(1, 1), Coordinate(1, 1)) == [
            Coordinate(1, 1)
        ]

    def test_path_links_adjacent(self, small_mesh):
        path = dimension_ordered_path(small_mesh, Coordinate(0, 0), Coordinate(2, 1))
        links = path_links(small_mesh, path)
        assert len(links) == len(path) - 1
        for link in links:
            assert link.dst in small_mesh.neighbors(link.src)

    def test_outside_mesh(self, small_mesh):
        with pytest.raises(ValueError):
            dimension_ordered_path(small_mesh, Coordinate(0, 0), Coordinate(9, 0))


class TestRoutingTable:
    def test_capacity_enforced(self):
        t = RoutingTable(Coordinate(0, 0), capacity=2)
        t.install(Coordinate(1, 0), Coordinate(1, 0))
        t.install(Coordinate(2, 0), Coordinate(1, 0))
        with pytest.raises(RoutingError, match="full"):
            t.install(Coordinate(3, 0), Coordinate(1, 0))

    def test_reinstall_does_not_consume_capacity(self):
        t = RoutingTable(Coordinate(0, 0), capacity=1)
        t.install(Coordinate(1, 0), Coordinate(1, 0))
        t.install(Coordinate(1, 0), Coordinate(1, 0))
        assert len(t) == 1

    def test_route_to_self_rejected(self):
        t = RoutingTable(Coordinate(0, 0), capacity=4)
        with pytest.raises(RoutingError):
            t.install(Coordinate(0, 0), Coordinate(1, 0))

    def test_missing_route(self):
        t = RoutingTable(Coordinate(0, 0), capacity=4)
        with pytest.raises(RoutingError, match="no route"):
            t.next_hop(Coordinate(1, 1))


class TestDenseRouting:
    def test_small_mesh_fits(self, small_mesh):
        tables = build_dense_routing(small_mesh)
        assert len(tables[Coordinate(0, 0)]) == 15

    def test_dense_routes_resolve_everywhere(self, small_torus):
        tables = build_dense_routing(small_torus)
        for dst in small_torus.chips():
            if dst == Coordinate(0, 0):
                continue
            path = resolve_route(tables, Coordinate(0, 0), dst)
            assert path[-1] == dst

    @pytest.mark.parametrize("mesh_fixture", ["small_mesh", "small_torus"])
    def test_installed_hop_is_first_hop_of_the_path(self, mesh_fixture, request):
        """The builders install the next hop without walking the path; it
        must be the path's second coordinate for every pair (on the torus
        that includes the distance-2 wrap ties)."""
        mesh = request.getfixturevalue(mesh_fixture)
        dense = build_dense_routing(mesh)
        sparse = build_sparse_row_col_routing(mesh)
        for src in mesh.chips():
            for dst in mesh.chips():
                if dst == src:
                    continue
                hop = dimension_ordered_path(mesh, src, dst)[1]
                assert dense[src].next_hop(dst) == hop, (src, dst)
                if dst.x == src.x or dst.y == src.y:
                    assert sparse[src].next_hop(dst) == hop, (src, dst)

    def test_multipod_exceeds_table(self):
        """The paper's constraint: 4096 destinations > 1024 entries."""
        with pytest.raises(RoutingError, match="full"):
            build_dense_routing(multipod(4))

    def test_single_pod_also_exceeds(self):
        # 1023 destinations fit exactly in 1024 entries -> no error.
        tables = build_dense_routing(slice_for_chips(1024))
        assert len(tables[Coordinate(0, 0)]) == 1023


class TestSparseRouting:
    def test_entry_count_on_multipod(self, the_multipod):
        # Only build tables for a subset via a small slice of same shape
        # logic; full multipod is large but fine once.
        tables = build_sparse_row_col_routing(slice_for_chips(256))
        entries = len(tables[Coordinate(0, 0)])
        assert entries == (16 - 1) + (16 - 1)

    def test_multipod_sparse_fits(self):
        """128 + 32 - 2 = 158 entries per chip on the full multipod."""
        mesh = multipod(4)
        # Verify arithmetic without building all 4096 tables.
        assert (mesh.x_size - 1) + (mesh.y_size - 1) < mesh.chip.routing_table_entries

    def test_row_column_routes_resolve(self, small_torus):
        tables = build_sparse_row_col_routing(small_torus)
        path = resolve_route(tables, Coordinate(0, 0), Coordinate(3, 0))
        assert path[-1] == Coordinate(3, 0)
        path = resolve_route(tables, Coordinate(0, 0), Coordinate(0, 2))
        assert path[-1] == Coordinate(0, 2)

    def test_off_axis_route_fails(self, small_torus):
        """Sparse routing only covers the row and column — by design."""
        tables = build_sparse_row_col_routing(small_torus)
        with pytest.raises(RoutingError, match="no route"):
            resolve_route(tables, Coordinate(0, 0), Coordinate(2, 2))

    def test_ring_traffic_needs_only_sparse(self, small_torus):
        """Ring collectives move along rows/columns: sparse is sufficient."""
        tables = build_sparse_row_col_routing(small_torus)
        for x in range(small_torus.x_size):
            src = Coordinate(x, 0)
            nxt = Coordinate(x, 1)
            assert resolve_route(tables, src, nxt)[-1] == nxt
