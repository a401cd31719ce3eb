"""Routing tables and the sparse row/column routing scheme.

The TPU-v3 chip has only 1024 routing-table entries.  On a 4096-chip
multipod a dense table (one entry per destination chip) cannot fit, so the
paper uses a *sparse* scheme in which each chip only installs routes to the
chips sharing its row or its column.  That is sufficient for the ring-based
all-reduce schedules of Section 3.3, which only ever communicate along rows
and columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hardware.topology import Coordinate, Link, TorusMesh


class RoutingError(RuntimeError):
    """Raised when a route cannot be installed or resolved."""


@dataclass
class RoutingTable:
    """Per-chip destination table with a hardware capacity limit.

    Maps destination coordinates to the next-hop neighbor coordinate.
    """

    owner: Coordinate
    capacity: int
    entries: dict[Coordinate, Coordinate] = field(default_factory=dict)

    def install(self, dest: Coordinate, next_hop: Coordinate) -> None:
        if dest == self.owner:
            raise RoutingError(f"cannot install route to self at {self.owner}")
        if dest not in self.entries and len(self.entries) >= self.capacity:
            raise RoutingError(
                f"routing table at {self.owner} full "
                f"({len(self.entries)}/{self.capacity} entries)"
            )
        self.entries[dest] = next_hop

    def next_hop(self, dest: Coordinate) -> Coordinate:
        try:
            return self.entries[dest]
        except KeyError:
            raise RoutingError(
                f"chip {self.owner} has no route to {dest} "
                f"(sparse row/column routing only covers the owner's row and column)"
            ) from None

    def __len__(self) -> int:
        return len(self.entries)


def _step_toward(mesh: TorusMesh, src: int, dst: int, axis: str) -> int:
    """Next coordinate value moving from src toward dst along one axis.

    Uses the shorter way around if the axis has a wrap link, otherwise the
    only way along the mesh line.
    """
    size = mesh.x_size if axis == "x" else mesh.y_size
    wrap = mesh.wrap_x if axis == "x" else mesh.wrap_y
    if src == dst:
        return src
    forward = (dst - src) % size
    backward = (src - dst) % size
    if wrap and backward < forward:
        return (src - 1) % size
    if wrap and forward <= backward:
        return (src + 1) % size
    return src + 1 if dst > src else src - 1


def dimension_ordered_path(
    mesh: TorusMesh, src: Coordinate, dst: Coordinate
) -> list[Coordinate]:
    """Dimension-ordered (X then Y) route from ``src`` to ``dst``.

    Returns the full coordinate sequence including both endpoints.  Takes
    wrap links when they shorten the path.
    """
    if not (mesh.contains(src) and mesh.contains(dst)):
        raise ValueError("endpoints outside mesh")
    path = [src]
    cur = src
    while cur.x != dst.x:
        cur = Coordinate(_step_toward(mesh, cur.x, dst.x, "x"), cur.y)
        path.append(cur)
    while cur.y != dst.y:
        cur = Coordinate(cur.x, _step_toward(mesh, cur.y, dst.y, "y"))
        path.append(cur)
    return path


def _first_hop(mesh: TorusMesh, src: Coordinate, dst: Coordinate) -> Coordinate:
    """``dimension_ordered_path(mesh, src, dst)[1]`` without walking the path."""
    if src.x != dst.x:
        return Coordinate(_step_toward(mesh, src.x, dst.x, "x"), src.y)
    return Coordinate(src.x, _step_toward(mesh, src.y, dst.y, "y"))


def path_links(mesh: TorusMesh, path: list[Coordinate]) -> list[Link]:
    """The directed links traversed by a coordinate path."""
    return [mesh.link_between(a, b) for a, b in zip(path, path[1:])]


def build_dense_routing(mesh: TorusMesh) -> dict[Coordinate, RoutingTable]:
    """Install a route from every chip to every other chip.

    Raises :class:`RoutingError` when the mesh has more destinations than a
    chip's routing table can hold — this is exactly the constraint that
    forces the multipod onto sparse routing (the table reproduces the
    paper's observation that 4096 chips exceed the 1024-entry table).
    """
    capacity = mesh.chip.routing_table_entries
    tables = {c: RoutingTable(c, capacity) for c in mesh.chips()}
    for src in mesh.chips():
        table = tables[src]
        for dst in mesh.chips():
            if dst == src:
                continue
            table.install(dst, _first_hop(mesh, src, dst))
    return tables


def build_sparse_row_col_routing(mesh: TorusMesh) -> dict[Coordinate, RoutingTable]:
    """Install routes only to chips in the owner's row and column.

    This is the paper's scheme: each chip sees ``x_size - 1 + y_size - 1``
    destinations, which fits the 1024-entry table even on the 128x32
    multipod (158 entries per chip).
    """
    capacity = mesh.chip.routing_table_entries
    tables = {c: RoutingTable(c, capacity) for c in mesh.chips()}
    for src in mesh.chips():
        table = tables[src]
        for x in range(mesh.x_size):
            dst = Coordinate(x, src.y)
            if dst == src:
                continue
            table.install(dst, _first_hop(mesh, src, dst))
        for y in range(mesh.y_size):
            dst = Coordinate(src.x, y)
            if dst == src:
                continue
            table.install(dst, _first_hop(mesh, src, dst))
    return tables


def resolve_route(
    tables: dict[Coordinate, RoutingTable],
    src: Coordinate,
    dst: Coordinate,
    max_hops: int = 1_000,
) -> list[Coordinate]:
    """Follow installed next-hops from ``src`` to ``dst``.

    Raises :class:`RoutingError` if any chip on the way lacks a route (as
    happens under sparse routing for destinations off the row/column) or if
    the route loops.
    """
    path = [src]
    cur = src
    for _ in range(max_hops):
        if cur == dst:
            return path
        cur = tables[cur].next_hop(dst)
        path.append(cur)
    raise RoutingError(f"route from {src} to {dst} exceeded {max_hops} hops")
