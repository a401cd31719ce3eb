"""Ring construction for the multipod collective schedules (Figure 4).

Section 3.3 of the paper builds three families of reduction rings:

* **Y rings** — bidirectional rings along the Y torus dimension (one per
  mesh column); they carry the bulk of the gradient reduce-scatter ("red
  rings" in Figure 4).
* **X lines** — per-row paths along the X mesh dimension; they carry the
  second-stage reduce-scatter whose payload is already ``1/y_size`` of the
  gradients.
* **Model-peer rings** — when model parallelism shards weights over ``m``
  X-adjacent chips, gradient reduction along X happens between *peers*
  (chips holding the same weight shard), hopping over the ``m-1``
  model-parallel neighbors in between ("dotted blue" in Figure 4).  The
  model-parallel forward/backward all-reduces run on the short
  ``m``-chip X segments themselves ("black rings").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.hardware.routing import dimension_ordered_path, path_links
from repro.hardware.topology import Coordinate, Link, TorusMesh


@dataclass(frozen=True)
class Ring:
    """An ordered communication ring (or open line) over mesh chips.

    Attributes
    ----------
    members:
        Chips in ring order.
    closed:
        True when a physical wrap link closes the ring (a torus dimension);
        False for an open line (a mesh dimension), where ring algorithms
        must fall back to line variants.
    hop_stride:
        Number of physical hops between consecutive members (1 for plain
        rings; ``m`` for model-peer rings hopping over ``m-1`` chips).
    """

    members: tuple[Coordinate, ...]
    closed: bool
    hop_stride: int = 1

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a ring needs at least 2 members")
        if len(set(self.members)) != len(self.members):
            raise ValueError("ring members must be distinct")

    @property
    def size(self) -> int:
        return len(self.members)

    def segments(self, mesh: TorusMesh) -> list[list[Link]]:
        """Physical links between consecutive members, in ring order.

        Returns ``size`` segments for a closed ring (including the closing
        hop) and ``size - 1`` for an open line.  Each segment is the
        dimension-ordered shortest path between neighbors.
        """
        pairs = list(zip(self.members, self.members[1:]))
        if self.closed:
            pairs.append((self.members[-1], self.members[0]))
        return [
            path_links(mesh, dimension_ordered_path(mesh, a, b)) for a, b in pairs
        ]


def y_ring(mesh: TorusMesh, x: int) -> Ring:
    """The Y-dimension ring (or line) in mesh column ``x``."""
    if not 0 <= x < mesh.x_size:
        raise ValueError(f"column {x} outside mesh")
    members = tuple(Coordinate(x, y) for y in range(mesh.y_size))
    return Ring(members, closed=mesh.wrap_y)


def x_line(mesh: TorusMesh, y: int) -> Ring:
    """The X-dimension line (or ring, in a single-pod torus) in row ``y``."""
    if not 0 <= y < mesh.y_size:
        raise ValueError(f"row {y} outside mesh")
    members = tuple(Coordinate(x, y) for x in range(mesh.x_size))
    return Ring(members, closed=mesh.wrap_x)


def all_y_rings(mesh: TorusMesh) -> list[Ring]:
    """One Y ring per mesh column — they use disjoint physical links."""
    return [y_ring(mesh, x) for x in range(mesh.x_size)]


def all_x_lines(mesh: TorusMesh) -> list[Ring]:
    """One X line per mesh row — disjoint physical links."""
    return [x_line(mesh, y) for y in range(mesh.y_size)]


def model_group(mesh: TorusMesh, coord: Coordinate, mp_size: int) -> tuple[Coordinate, ...]:
    """The X-adjacent model-parallel group containing ``coord``.

    Model-parallel groups are aligned blocks of ``mp_size`` chips along X
    ("placed along a line on the X-dimension", Section 3.3).
    """
    if mp_size < 1:
        raise ValueError("mp_size must be >= 1")
    if mesh.x_size % mp_size != 0:
        raise ValueError(
            f"x_size {mesh.x_size} not divisible by model-parallel size {mp_size}"
        )
    base = (coord.x // mp_size) * mp_size
    return tuple(Coordinate(base + i, coord.y) for i in range(mp_size))


def degraded_ring(ring: Ring, dead: Iterable[Coordinate]) -> Ring | None:
    """Heal a ring around dead chips by hopping over the holes.

    Survivors keep their ring order; the segment between the neighbors of a
    dead chip is the dimension-ordered path *through* the hole's position
    — exactly the model-peer hop of Figure 4, applied to an unplanned hole
    (ICI links remain switchable through a failed chip's router, so only
    the chip's compute and buffers are lost).  Returns ``None`` when fewer
    than two members survive (no ring schedule is possible).

    ``hop_stride`` is preserved from the source ring: it describes the
    *planned* member spacing; the healed holes are irregular and are
    visible only through :meth:`Ring.segments`.
    """
    dead = set(tuple(d) for d in dead)
    members = tuple(m for m in ring.members if tuple(m) not in dead)
    if len(members) < 2:
        return None
    if len(members) == len(ring.members):
        return ring
    return Ring(members, closed=ring.closed, hop_stride=ring.hop_stride)


def degraded_rings(
    rings: Iterable[Ring], dead: Iterable[Coordinate]
) -> list[Ring]:
    """Heal every ring, dropping those with fewer than two survivors."""
    dead = set(tuple(d) for d in dead)
    healed = []
    for ring in rings:
        survivor = degraded_ring(ring, dead)
        if survivor is not None:
            healed.append(survivor)
    return healed


def model_peer_ring(mesh: TorusMesh, y: int, mp_size: int, peer_id: int) -> Ring:
    """Gradient-reduction ring over model-parallel *peers* in row ``y``.

    With ``mp_size``-way model parallelism along X, the chips at
    ``x = peer_id, peer_id + mp_size, peer_id + 2*mp_size, ...`` hold the
    same weight shard; their gradients are summed on a ring that hops over
    the intervening model-parallel neighbors (Figure 4, dotted blue; only
    ``peer_id = 0`` is drawn in the paper).
    """
    if not 0 <= peer_id < mp_size:
        raise ValueError(f"peer_id {peer_id} outside model group of {mp_size}")
    if mesh.x_size % mp_size != 0:
        raise ValueError(
            f"x_size {mesh.x_size} not divisible by model-parallel size {mp_size}"
        )
    if mesh.x_size // mp_size < 2:
        raise ValueError("need at least 2 replicas along X for a peer ring")
    members = tuple(
        Coordinate(x, y) for x in range(peer_id, mesh.x_size, mp_size)
    )
    return Ring(members, closed=mesh.wrap_x, hop_stride=mp_size)
