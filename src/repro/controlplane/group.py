"""Host groups and the two control-plane topologies of Section 2.

A :class:`HostGroup` is the host-granularity view of a chip mesh: hosts
own row-major blocks of chips (the shared :func:`~repro.resilience.faults.host_map`
rule), and a host failure — preemption, kernel panic, NIC flap — takes out
every chip in its block at once.

On top of the group sit the paper's two control planes:

* :class:`SingleClientCoordinator` — TF-style.  One coordinator host
  drives every worker, heartbeats them, and is itself a single point of
  failure: nobody monitors the monitor, so its death kills the job.  Init
  and re-init both pay the per-worker linear term of Table 2.
* :class:`MultiClientGroup` — JAX-style.  Every host is a peer client;
  failure detection is a successor-ring lease (host ``h`` is watched by
  ``h+1 mod n``, like a gossip ring), so *any* host's death is observed
  by a survivor and the job re-forms elastically in ~constant time.

The topologies only describe *who watches whom* and *what dying costs*;
the actual heartbeat timing model lives in
:mod:`repro.controlplane.heartbeat`.
"""

from __future__ import annotations

import abc
import logging
from dataclasses import dataclass, field

from repro.frameworks.base import FrameworkModel, GraphProfile
from repro.frameworks.jax import MultiClientJAX
from repro.frameworks.tensorflow import SingleClientTF
from repro.refuse import count
from repro.resilience.faults import Device, host_map

logger = logging.getLogger("repro.controlplane")


class JobKilledError(RuntimeError):
    """A host failure hit the control plane itself; the job cannot recover."""

    def __init__(self, host: int, reason: str = "") -> None:
        self.host = host
        super().__init__(
            reason or f"host {host} failure is fatal to the control plane"
        )

    def __reduce__(self):
        return type(self), (self.host, str(self)), self.__dict__


@dataclass(frozen=True)
class HostGroup:
    """The host-granularity failure domains of an ``(x, y)`` chip mesh.

    ``hosts`` is derived once from the shared :func:`host_map` rule, so
    the control plane and :func:`repro.resilience.faults.fail_host` can
    never disagree about which chips die with a host.
    """

    mesh_shape: tuple[int, int]
    chips_per_host: int = 8
    hosts: dict[int, tuple[Device, ...]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "hosts", host_map(self.mesh_shape, self.chips_per_host)
        )

    @property
    def num_hosts(self) -> int:
        return len(self.hosts)

    def chips_of(self, host: int) -> tuple[Device, ...]:
        """The failure domain of one host (every chip it drives)."""
        try:
            return self.hosts[host]
        except KeyError:
            raise ValueError(
                f"host {host} not in group of {self.num_hosts} hosts"
            ) from None

    def host_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self.hosts))


class ControlTopology(abc.ABC):
    """Who watches whom, and what init/failure cost the control plane pays."""

    def __init__(self, group: HostGroup, framework: FrameworkModel) -> None:
        self.group = group
        self.framework = framework

    @property
    def num_hosts(self) -> int:
        return self.group.num_hosts

    def init_time(self, profile: GraphProfile) -> float:
        """Job launch to first step — delegated to the framework model."""
        return self.framework.init_time(self.num_hosts, profile)

    def reinit_time(self, num_hosts: int, profile: GraphProfile) -> float:
        """Cost of re-forming the job on ``num_hosts`` survivors."""
        return self.framework.reinit_time(num_hosts, profile)

    @abc.abstractmethod
    def observers_of(self, host: int) -> tuple[int, ...]:
        """Hosts whose heartbeat monitoring covers ``host``."""

    def is_fatal_host_failure(self, host: int) -> bool:
        """Whether losing ``host`` kills the job (no elastic recovery)."""
        return self.framework.is_fatal_host_failure(host)

    def check_host_failure(self, host: int) -> None:
        """Raise :class:`JobKilledError` when losing ``host`` is fatal."""
        if self.is_fatal_host_failure(host):
            err = JobKilledError(
                host,
                f"{type(self).__name__}: host {host} is the coordinator; "
                "its death kills the job",
            )
            from repro.telemetry import on_terminal_failure

            on_terminal_failure(
                err, origin="controlplane.host_failure", host=host
            )
            raise err


class SingleClientCoordinator(ControlTopology):
    """TF-style: the coordinator heartbeats every worker, and is a SPOF."""

    def __init__(
        self, group: HostGroup, framework: FrameworkModel | None = None
    ) -> None:
        super().__init__(group, framework or SingleClientTF())
        if self.framework.coordinator_host is None:
            raise ValueError(
                "single-client topology needs a framework with a coordinator "
                f"({type(self.framework).__name__} has none)"
            )
        self.coordinator = self.framework.coordinator_host
        if self.coordinator not in group.hosts:
            raise ValueError(
                f"coordinator host {self.coordinator} not in group "
                f"of {group.num_hosts} hosts"
            )

    def observers_of(self, host: int) -> tuple[int, ...]:
        """Workers are watched by the coordinator; the coordinator by nobody."""
        if host == self.coordinator:
            return ()
        return (self.coordinator,)


class MultiClientGroup(ControlTopology):
    """JAX-style peer group: successor-ring lease monitoring, no SPOF."""

    def __init__(
        self,
        group: HostGroup,
        framework: FrameworkModel | None = None,
        *,
        gossip_fanout: int = 1,
    ) -> None:
        super().__init__(group, framework or MultiClientJAX())
        self.gossip_fanout = count("gossip_fanout", gossip_fanout)

    def observers_of(self, host: int) -> tuple[int, ...]:
        """The ``gossip_fanout`` ring successors of ``host`` hold its lease."""
        ids = self.group.host_ids()
        n = len(ids)
        if n <= 1:
            return ()
        pos = ids.index(host)
        fanout = min(self.gossip_fanout, n - 1)
        return tuple(ids[(pos + k) % n] for k in range(1, fanout + 1))
