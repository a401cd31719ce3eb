"""Multi-client (JAX-style) runtime model."""

from __future__ import annotations

import math

from repro.frameworks.base import FrameworkModel, GraphProfile
from repro.refuse import count


class MultiClientJAX(FrameworkModel):
    """Every host runs the same program and compiles its own binaries.

    ``init = mesh_init(num_hosts) + compile`` — per-host compilation happens
    in parallel on all hosts, so it appears once; only the topological mesh
    initialization retains a weak (logarithmic barrier/consensus) dependence
    on system size.  This reproduces Table 2's near-constant JAX times.
    """

    name = "jax"

    #: No coordinator: every host is a peer client, so no single host
    #: failure is fatal — survivors detect the loss and re-form.
    coordinator_host: int | None = None

    def __init__(
        self,
        mesh_init_base_seconds: float = 40.0,
        mesh_init_seconds_per_log2_host: float = 6.0,
    ) -> None:
        self.mesh_init_base_seconds = mesh_init_base_seconds
        self.mesh_init_seconds_per_log2_host = mesh_init_seconds_per_log2_host

    def reinit_time(self, num_hosts: int, profile: GraphProfile) -> float:
        """Re-forming skips recompilation: survivors reuse their binaries.

        Only the (weakly size-dependent) mesh re-initialization is
        re-paid, so elastic shrink is cheap — the failure-domain twin of
        Table 2's constant-time init.
        """
        count("num_hosts", num_hosts)
        return (
            self.mesh_init_base_seconds
            + self.mesh_init_seconds_per_log2_host * math.log2(max(2, num_hosts))
        )

    def init_time(self, num_hosts: int, profile: GraphProfile) -> float:
        count("num_hosts", num_hosts)
        mesh = (
            self.mesh_init_base_seconds
            + self.mesh_init_seconds_per_log2_host * math.log2(max(2, num_hosts))
        )
        return mesh + profile.compile_seconds

    def eval_metric_time(self, num_hosts: int, metric_bytes: float) -> float:
        """Metrics reduce on-device: one tiny all-reduce, effectively free."""
        return 0.05
