"""Single-client (TensorFlow-style) runtime model."""

from __future__ import annotations

from repro.frameworks.base import FrameworkModel, GraphProfile
from repro.refuse import count


class SingleClientTF(FrameworkModel):
    """One coordinator builds a multi-device graph for the whole system.

    ``init = mesh_init + compile + graph_build_per_worker * num_workers +
    rpc_distribution``.  The linear term is the Amdahl bottleneck of
    Section 2/Table 2; multithreaded compilation (mentioned in the paper)
    is folded into ``profile.compile_seconds``.
    """

    name = "tf"

    #: The coordinator is host 0 and a single point of failure: every
    #: worker is driven by its session, so its death kills the job
    #: (the Section 2 control-plane contrast with multi-client JAX).
    coordinator_host: int | None = 0

    def __init__(
        self,
        mesh_init_seconds: float = 60.0,
        rpc_seconds_per_host: float = 0.05,
        metric_rpc_seconds_per_host: float = 2.0e-4,
        coordinator_metric_seconds: float = 0.1,
    ) -> None:
        self.mesh_init_seconds = mesh_init_seconds
        # Graph/binary distribution at startup: heavyweight per-host RPCs.
        self.rpc_seconds_per_host = rpc_seconds_per_host
        # Metric gather after an eval: small scalar RPCs, cheap per host.
        self.metric_rpc_seconds_per_host = metric_rpc_seconds_per_host
        self.coordinator_metric_seconds = coordinator_metric_seconds

    def init_time(self, num_hosts: int, profile: GraphProfile) -> float:
        count("num_hosts", num_hosts)
        return (
            self.mesh_init_seconds
            + profile.compile_seconds
            + profile.graph_build_seconds_per_worker * num_hosts
            + self.rpc_seconds_per_host * num_hosts
        )

    def eval_metric_time(self, num_hosts: int, metric_bytes: float) -> float:
        """Gather per-host metrics to the coordinator over host RPCs."""
        count("num_hosts", num_hosts)
        rpc = self.metric_rpc_seconds_per_host * num_hosts
        return rpc + self.coordinator_metric_seconds
