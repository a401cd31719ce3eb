"""Hardware substrate: accelerator chip specs, hosts, and pod topologies.

This subpackage models the machines of the paper:

* :mod:`repro.hardware.chip` — per-chip specifications (TPU-v2/v3/v4 and the
  NVIDIA V100/A100 comparators of Figures 10-11), plus host specifications.
* :mod:`repro.hardware.topology` — the 2-D mesh/torus chip interconnect,
  including the 4-pod "Multipod" (128x32 mesh, Y-edge torus wraps, cross-pod
  optical links along X) and arbitrary rectangular slices of it.
* :mod:`repro.hardware.routing` — the TPU-v3 routing-table constraint (1024
  entries) and the sparse row/column routing scheme used by the paper.
* :mod:`repro.hardware.rings` — ring construction for the collective
  algorithms of Section 3.3 / Figure 4: bidirectional Y-rings, X-lines, and
  the "hop over model-parallel peers" gradient rings.
* :mod:`repro.hardware.gpu` — DGX-style GPU cluster model used as the
  comparator system in Figures 10-11.
"""

from repro.hardware.chip import (
    ChipSpec,
    HostSpec,
    TPU_V2,
    TPU_V3,
    TPU_V4,
    GPU_V100,
    GPU_A100,
    TPU_V3_HOST,
)
from repro.hardware.topology import (
    Coordinate,
    Link,
    LinkKind,
    TorusMesh,
    multipod,
    single_pod,
    slice_for_chips,
)
from repro.hardware.routing import (
    RoutingError,
    RoutingTable,
    build_dense_routing,
    build_sparse_row_col_routing,
    dimension_ordered_path,
)
from repro.hardware.rings import (
    Ring,
    x_line,
    y_ring,
    all_y_rings,
    all_x_lines,
    model_peer_ring,
)
from repro.hardware.gpu import GpuCluster, dgx_cluster

__all__ = [
    "ChipSpec",
    "HostSpec",
    "TPU_V2",
    "TPU_V3",
    "TPU_V4",
    "GPU_V100",
    "GPU_A100",
    "TPU_V3_HOST",
    "Coordinate",
    "Link",
    "LinkKind",
    "TorusMesh",
    "multipod",
    "single_pod",
    "slice_for_chips",
    "RoutingError",
    "RoutingTable",
    "build_dense_routing",
    "build_sparse_row_col_routing",
    "dimension_ordered_path",
    "Ring",
    "x_line",
    "y_ring",
    "all_y_rings",
    "all_x_lines",
    "model_peer_ring",
    "GpuCluster",
    "dgx_cluster",
]
