"""Common interface of the framework runtime models."""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.refuse import non_negative


@dataclass(frozen=True)
class GraphProfile:
    """Compilation-relevant size of one benchmark's program.

    ``compile_seconds`` is the time to XLA-compile the per-replica program
    once on one host; ``graph_build_seconds_per_worker`` the single-client
    cost of constructing/optimizing the multi-device graph per attached
    worker (TensorFlow only).
    """

    name: str
    compile_seconds: float
    graph_build_seconds_per_worker: float

    def __post_init__(self) -> None:
        non_negative("compile_seconds", self.compile_seconds)
        non_negative("graph_build_seconds_per_worker", self.graph_build_seconds_per_worker)


class FrameworkModel(abc.ABC):
    """A framework's scaling behaviour on a TPU slice.

    Beyond the Table 2 timing surface, a model also describes its
    *failure domain* — the control-plane facts the
    :mod:`repro.controlplane` topologies consume: whether one host is a
    single point of failure (``coordinator_host``), and what a restart
    after a host loss costs (``reinit_time``, which for a single-client
    runtime re-pays the per-worker graph construction of Table 2).
    """

    name: str

    #: Host index whose death kills the whole job, or ``None`` when no
    #: single host is a SPOF (the multi-client case).
    coordinator_host: int | None = None

    @abc.abstractmethod
    def init_time(self, num_hosts: int, profile: GraphProfile) -> float:
        """Seconds from job launch to the first training step."""

    @abc.abstractmethod
    def eval_metric_time(self, num_hosts: int, metric_bytes: float) -> float:
        """Seconds to produce the global eval metric after an eval pass."""

    def is_fatal_host_failure(self, host: int) -> bool:
        """Whether losing ``host`` kills the job outright (no elastic path)."""
        return self.coordinator_host is not None and host == self.coordinator_host

    def reinit_time(self, num_hosts: int, profile: GraphProfile) -> float:
        """Seconds to re-form the job on ``num_hosts`` survivors.

        Defaults to a full :meth:`init_time` — reforming a single-client
        graph re-pays the linear per-worker term, while the multi-client
        override below is ~constant.
        """
        return self.init_time(num_hosts, profile)
