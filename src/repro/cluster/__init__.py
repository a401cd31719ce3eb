"""Elastic multi-tenant cluster scheduling over one simulated pod.

Many concurrent training jobs share one Multipod: :class:`ClusterState`
carves rectangular mesh slices against the repo-wide host map,
:class:`ClusterScheduler` runs admission (with the shared
:class:`~repro.resilience.faults.RetryPolicy` backoff), strict-priority
preemption through the announced grace-window path, elastic
shrink/regrow across :class:`~repro.resilience.faults.FaultPlan` chip
deaths, and per-tenant goodput/fairness/SLO accounting on the
:class:`~repro.resilience.chaos.GoodputAccounting` schema.

One cluster ``seed`` determines everything (:func:`derive_subseed`);
:func:`solo_replay` proves a tenant's numerics are bit-identical to
running its recorded timeline alone.
"""

from repro.cluster.jobs import (
    COMPLETED,
    JOB_STATES,
    PENDING,
    REJECTED,
    RUNNING,
    JobReport,
    JobSpec,
)
from repro.cluster.scheduler import (
    DEFAULT_ADMISSION_POLICY,
    ClusterConfig,
    ClusterResult,
    ClusterScheduler,
    run_cluster,
    solo_replay,
)
from repro.cluster.state import ClusterState, Slice
from repro.resilience.faults import RetryPolicy
from repro.seeding import derive_subseed

__all__ = [
    "COMPLETED",
    "DEFAULT_ADMISSION_POLICY",
    "JOB_STATES",
    "PENDING",
    "REJECTED",
    "RUNNING",
    "ClusterConfig",
    "ClusterResult",
    "ClusterScheduler",
    "ClusterState",
    "JobReport",
    "JobSpec",
    "RetryPolicy",
    "Slice",
    "derive_subseed",
    "run_cluster",
    "solo_replay",
]
