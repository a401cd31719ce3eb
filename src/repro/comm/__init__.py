"""Collective communication: cost models and multipod schedules.

* :mod:`repro.comm.cost` — alpha-beta cost formulas for ring/line
  reduce-scatter, all-gather and all-reduce, and point-to-point transfers.
* :mod:`repro.comm.allreduce` — the paper's 2-D hierarchical gradient
  summation (Section 3.3): Y-torus reduce-scatter, X reduce-scatter,
  sharded weight update, X/Y all-gather; the model-peer-hopping variant
  used with model parallelism; and a flat single-ring baseline for
  ablations.
* :mod:`repro.comm.halo` — halo-exchange cost for spatial partitioning.
* :mod:`repro.comm.schedule` — link-level discrete-event execution of ring
  schedules, used to validate the analytic formulas.
"""

from repro.comm.cost import (
    reduce_scatter_time,
    all_gather_time,
    ring_all_reduce_time,
    ring_cost_for,
)
from repro.comm.allreduce import (
    AllReduceBreakdown,
    two_phase_allreduce,
    flat_ring_allreduce,
    model_parallel_allreduce,
    gradient_allreduce,
)
from repro.comm.halo import halo_exchange_time, spatial_shard_shape
from repro.comm.schedule import (
    DegradedScheduleResult,
    simulate_degraded_all_gather,
    simulate_degraded_reduce_scatter,
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)

__all__ = [
    "reduce_scatter_time",
    "all_gather_time",
    "ring_all_reduce_time",
    "ring_cost_for",
    "AllReduceBreakdown",
    "two_phase_allreduce",
    "flat_ring_allreduce",
    "model_parallel_allreduce",
    "gradient_allreduce",
    "halo_exchange_time",
    "spatial_shard_shape",
    "DegradedScheduleResult",
    "simulate_degraded_all_gather",
    "simulate_degraded_reduce_scatter",
    "simulate_ring_reduce_scatter",
    "simulate_ring_all_gather",
]
