"""A synchronization barrier with timeout and straggler attribution.

Synchronous SPMD training is one giant implicit barrier per step: the
all-reduce completes only when the slowest participant arrives.  The
control plane's job is to turn "the step is slow" into *names* — which
host is late, and by how much — so the chaos harness and the input-
pipeline imbalance study (§3.5) can attribute stalls instead of just
observing them.

:class:`Barrier` is a discrete-event primitive on
:class:`repro.sim.engine.Simulator`: participants ``arrive()``, and the
barrier's event fires either when everyone has arrived or when
``timeout_s`` expires — in which case the missing hosts are attributed
as stragglers in the :class:`BarrierResult`.  :func:`resolve_barrier`
wraps the common case of known arrival times.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro import telemetry as _telemetry
from repro.sim.engine import Simulator

logger = logging.getLogger("repro.controlplane")


@dataclass(frozen=True)
class BarrierResult:
    """Outcome of one barrier: who made it, who gets the blame."""

    released_at: float
    arrived: tuple[int, ...]
    stragglers: tuple[int, ...]
    timed_out: bool


class Barrier:
    """A one-shot barrier over named participants, with a timeout.

    The barrier opens at construction time (``sim.now``); its
    :attr:`event` fires with a :class:`BarrierResult` when every
    participant has arrived, or at ``timeout_s`` with the missing
    participants attributed as stragglers.  A zero-participant barrier
    releases immediately — there is nobody to wait for.

    Late ``arrive()`` calls (after release) are recorded but change
    nothing; arrivals for unknown participants raise.
    """

    def __init__(
        self, sim: Simulator, participants: Sequence[int], timeout_s: float
    ) -> None:
        if timeout_s <= 0:
            raise ValueError("timeout_s must be > 0")
        self.sim = sim
        self.participants = tuple(participants)
        if len(set(self.participants)) != len(self.participants):
            raise ValueError("duplicate barrier participants")
        self.timeout_s = timeout_s
        self.opened_at = sim.now
        self.event = sim.event()
        self._arrival_times: dict[int, float] = {}
        if not self.participants:
            self.event.succeed(
                BarrierResult(
                    released_at=sim.now, arrived=(), stragglers=(),
                    timed_out=False,
                )
            )
            return
        deadline = sim.timeout(timeout_s)
        deadline.callbacks.append(self._on_timeout)

    def arrive(self, participant: int) -> None:
        """Mark ``participant`` as arrived at the current simulation time."""
        if participant not in self.participants:
            raise ValueError(f"{participant} is not a barrier participant")
        self._arrival_times.setdefault(participant, self.sim.now)
        if self.event.triggered:
            return  # late arrival after release/timeout: already attributed
        if len(self._arrival_times) == len(self.participants):
            self.event.succeed(self._result(timed_out=False))

    def _result(self, timed_out: bool) -> BarrierResult:
        arrived = tuple(sorted(self._arrival_times))
        stragglers = tuple(
            sorted(set(self.participants) - set(self._arrival_times))
        )
        result = BarrierResult(
            released_at=self.sim.now,
            arrived=arrived,
            stragglers=stragglers,
            timed_out=timed_out,
        )
        if _telemetry.enabled:
            m = _telemetry.metrics
            m.counter("controlplane_barrier_releases").inc()
            if timed_out:
                m.counter("controlplane_barrier_timeouts").inc()
                m.counter("controlplane_barrier_stragglers").inc(
                    len(stragglers)
                )
        _telemetry.flight_recorder.record(
            "barrier",
            "timeout" if timed_out else "release",
            released_at=self.sim.now,
            arrived=len(arrived),
            participants=len(self.participants),
            stragglers=list(stragglers),
        )
        if timed_out:
            logger.warning(
                "barrier timed out at t=%.3f: %d/%d arrived, stragglers %s",
                self.sim.now, len(arrived), len(self.participants), stragglers,
            )
        return result

    def _on_timeout(self, event) -> None:
        if not self.event.triggered:
            self.event.succeed(self._result(timed_out=True))


def resolve_barrier(
    arrival_times: Mapping[int, float], timeout_s: float
) -> BarrierResult:
    """Resolve a barrier whose arrival times are already known.

    Spins up a private simulator, arrives each participant at its time,
    and returns the :class:`BarrierResult` — hosts later than
    ``timeout_s`` are attributed as stragglers.
    """
    sim = Simulator()
    barrier = Barrier(sim, tuple(arrival_times), timeout_s)

    def arriver(host: int, at: float):
        yield sim.timeout(at)
        barrier.arrive(host)

    for host, at in arrival_times.items():
        if at < 0:
            raise ValueError(f"negative arrival time for host {host}")
        sim.process(arriver(host, at), name=f"arrive[{host}]")
    sim.run()
    return barrier.event.value
