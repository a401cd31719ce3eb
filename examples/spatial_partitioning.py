"""Spatial partitioning with real halo exchange (Sections 3.1 / 4.4).

Runs an SSD-style convolution stack with its input image split along the
height dimension over 1-8 virtual cores.  The halo rows actually move
between shards before every layer — the communication XLA's SPMD
partitioner inserts — and the sharded result is checked against the
unsharded convolution.  Then the SPMD cost estimator reports the Figure 9
speedup curve the same partitioning achieves on the modeled TPU.

Run:
    python examples/spatial_partitioning.py
"""

import numpy as np

from repro.spmd import model_parallel_speedup
from repro.spmd.modelgraphs import spatial_seeds, ssd_graph
from repro.spmd.spatial_exec import conv2d_direct, spatial_conv_stack


def functional_demo() -> None:
    print("=== functional: conv stack with real halo exchange ===")
    rng = np.random.default_rng(0)
    x = rng.standard_normal((2, 32, 24, 3))
    weights = [
        rng.standard_normal((3, 3, 3, 8)) * 0.2,
        rng.standard_normal((3, 3, 8, 8)) * 0.2,
        rng.standard_normal((5, 5, 8, 4)) * 0.1,
    ]
    direct = x
    for i, w in enumerate(weights):
        direct = conv2d_direct(direct, w)
        if i + 1 < len(weights):
            direct = np.maximum(direct, 0.0)
    for k in (1, 2, 4, 8):
        out, halo_bytes = spatial_conv_stack(x, weights, k)
        err = float(np.max(np.abs(out - direct)))
        print(f"  {k} cores: max|sharded - direct| = {err:.2e}, "
              f"halo traffic {halo_bytes / 1e3:7.1f} KB")
    print()


def estimator_demo() -> None:
    print("=== modeled: SSD spatial-partitioning speedup (Figure 9) ===")
    speedups = model_parallel_speedup(ssd_graph, spatial_seeds, [1, 2, 4, 8])
    for cores, speedup in speedups.items():
        print(f"  {cores} cores: {speedup:.2f}x")
    print("(limited by halo exchange, tile imbalance, and the small spatial "
          "dims of late layers — Section 4.4)")


if __name__ == "__main__":
    functional_demo()
    estimator_demo()
