"""Heartbeat failure detection as a discrete-event model.

PR 3's chaos harness detected failures by oracle: a chip died and the
fleet *instantly* knew, paying only a fixed timeout.  Real control planes
pay a measurable **detection latency** (MTTD) set by three knobs — how
often hosts heartbeat (``interval_s``), how long an observer waits past a
deadline before counting a miss (``timeout_s``), and how many consecutive
misses it takes to declare death (``suspicion_threshold``, >1 to ride out
link flaps without false job-kills).

Two detector flavors share the ``detection_latency`` protocol consumed by
:func:`repro.resilience.chaos.run_chaos`:

* :class:`OracleDetector` — the PR 3 behavior as an explicit object: a
  constant latency, for baselines and hand-checkable accounting.
* :class:`HeartbeatDetector` — deadline arithmetic for the closed-form
  latency, plus :meth:`HeartbeatDetector.simulate`, which runs emitter
  and monitor processes on :class:`repro.sim.engine.Simulator` against a
  :class:`~repro.controlplane.group.ControlTopology` and a
  :class:`~repro.resilience.faults.FaultPlan` (link flaps drop beats in
  flight) and returns per-host :class:`Detection` records.

Everything is deterministic: the same plan and knobs replay the same
beats, suspicions, and detection times.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro import telemetry as _telemetry
from repro.refuse import count, non_negative, positive
from repro.resilience.faults import FaultPlan
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # annotation only: a detector runs on any topology object
    from repro.controlplane.group import ControlTopology

logger = logging.getLogger("repro.controlplane")


@dataclass(frozen=True)
class Detection:
    """One declared host death: when it really happened vs. when we knew.

    ``false_positive`` marks a declaration against a host that was in
    fact alive (suspicion threshold too low for the link weather) — the
    detector's job-killing failure mode.
    """

    host: int
    fault_time: float
    detect_time: float
    by: int
    false_positive: bool = False

    @property
    def latency(self) -> float:
        """Detection latency (MTTD contribution) in seconds."""
        return self.detect_time - self.fault_time


class OracleDetector:
    """PR 3's omniscient detection as an explicit, constant-latency object."""

    def __init__(self, latency_s: float = 0.5) -> None:
        self.latency_s = non_negative("latency_s", latency_s)

    def detection_latency(self, fault_time: float) -> float:
        return self.latency_s


class HeartbeatDetector:
    """Periodic-heartbeat failure detection with suspicion counting.

    Hosts send a beat every ``interval_s`` (beats at ``k * interval_s``
    for ``k >= 1``); an observer checks each beat ``timeout_s`` after its
    deadline and declares a watched host dead after
    ``suspicion_threshold`` *consecutive* misses.
    """

    def __init__(
        self,
        interval_s: float = 1.0,
        timeout_s: float = 0.5,
        suspicion_threshold: int = 2,
    ) -> None:
        self.interval_s = positive("interval_s", interval_s)
        self.timeout_s = positive("timeout_s", timeout_s)
        self.suspicion_threshold = count("suspicion_threshold", suspicion_threshold)

    # --- closed form ----------------------------------------------------------

    def detection_latency(self, fault_time: float) -> float:
        """Flap-free detection latency for a host dying at ``fault_time``.

        The first beat missed is the one due at the smallest
        ``k * interval_s >= fault_time`` (a host dying exactly on a
        deadline never sends that beat); death is declared at the check
        of the ``suspicion_threshold``-th consecutive miss.  This is the
        value the chaos harness charges as MTTD, and
        :meth:`simulate` reproduces it event by event.
        """
        if fault_time < 0:
            raise ValueError("fault_time must be >= 0")
        first_missed = max(1, math.ceil(fault_time / self.interval_s))
        detect_time = (
            (first_missed + self.suspicion_threshold - 1) * self.interval_s
            + self.timeout_s
        )
        return detect_time - fault_time

    # --- discrete-event simulation -------------------------------------------

    def simulate(
        self,
        topology: ControlTopology,
        deaths: Mapping[int, float],
        *,
        plan: FaultPlan | None = None,
        horizon_s: float | None = None,
    ) -> list[Detection]:
        """Run the heartbeat protocol on the simulator; return detections.

        ``deaths`` maps host -> death time (hosts absent stay alive).  A
        beat from host ``h`` to observer ``o`` at time ``t`` is dropped
        when ``plan`` says the link between the hosts' first chips is
        down at ``t`` — so a :class:`~repro.resilience.faults.LinkFault`
        flap window raises suspicion without a real death, and only a
        ``suspicion_threshold`` > 1 keeps the job alive through it.

        A dead host with no observers (a single-client coordinator)
        produces **no** detection — that is the job-killing hole the
        topology's ``check_host_failure`` reports.

        Only the earliest declaration per host is returned, sorted by
        detection time.  Telemetry: ``controlplane_heartbeats_sent``,
        ``controlplane_heartbeats_missed``,
        ``controlplane_false_suspicions``, ``controlplane_detections``
        and the ``controlplane_detection_latency_seconds`` histogram.
        """
        group = topology.group
        if horizon_s is None:
            base = max(deaths.values(), default=0.0)
            horizon_s = (
                base
                + (self.suspicion_threshold + 2) * self.interval_s
                + self.timeout_s
            )
        sim = Simulator()
        sent: dict[int, set[int]] = {h: set() for h in group.host_ids()}
        detections: dict[int, Detection] = {}
        # Heartbeats sent and missed and false suspicions, counted here and
        # written to the registry once, when the simulation ends.
        tallies = [0, 0, 0]

        def emitter(host: int, death: float):
            k = 1
            while True:
                beat_time = k * self.interval_s
                if beat_time > horizon_s:
                    return
                yield sim.timeout(beat_time - sim.now)
                if sim.now >= death:
                    return
                sent[host].add(k)
                tallies[0] += 1
                k += 1

        def link_up(src_host: int, dst_host: int, t: float) -> bool:
            if plan is None:
                return True
            src = group.chips_of(src_host)[0]
            dst = group.chips_of(dst_host)[0]
            return plan.link_factor(src, dst, t) > 0.0

        def monitor(observer: int, watched: int, death: float):
            suspicion = 0
            k = 1
            while True:
                check_time = k * self.interval_s + self.timeout_s
                if check_time > horizon_s:
                    return
                yield sim.timeout(check_time - sim.now)
                beat_time = k * self.interval_s
                delivered = k in sent[watched] and link_up(
                    watched, observer, beat_time
                )
                if delivered:
                    if suspicion and sim.now < death:
                        tallies[2] += suspicion
                    suspicion = 0
                else:
                    suspicion += 1
                    tallies[1] += 1
                    if suspicion >= self.suspicion_threshold:
                        declared = Detection(
                            host=watched,
                            fault_time=death,
                            detect_time=sim.now,
                            by=observer,
                            false_positive=sim.now < death,
                        )
                        prior = detections.get(watched)
                        if prior is None or declared.detect_time < prior.detect_time:
                            detections[watched] = declared
                        return
                k += 1

        for host in group.host_ids():
            death = deaths.get(host, math.inf)
            sim.process(emitter(host, death), name=f"beat[{host}]")
            for observer in topology.observers_of(host):
                observer_death = deaths.get(observer, math.inf)
                if observer_death <= 0:
                    continue  # a dead observer watches nothing
                sim.process(
                    monitor(observer, host, death),
                    name=f"watch[{observer}->{host}]",
                )
        sim.run()

        out = sorted(detections.values(), key=lambda d: (d.detect_time, d.host))
        if _telemetry.enabled:
            m = _telemetry.metrics
            sent_beats, missed, false_suspicions = tallies
            if sent_beats:
                m.counter("controlplane_heartbeats_sent").inc(sent_beats)
            if missed:
                m.counter("controlplane_heartbeats_missed").inc(missed)
            if false_suspicions:
                m.counter("controlplane_false_suspicions").inc(false_suspicions)
            for d in out:
                m.counter("controlplane_detections").inc()
                if not d.false_positive:
                    m.histogram(
                        "controlplane_detection_latency_seconds"
                    ).observe(d.latency)
        for d in out:
            _telemetry.flight_recorder.record(
                "heartbeat",
                "false_positive" if d.false_positive else "detection",
                host=d.host, by=d.by,
                fault_time=d.fault_time, detect_time=d.detect_time,
            )
        for d in out:
            logger.info(
                "host %d declared dead at t=%.3f by host %d (fault at %.3f, "
                "latency %.3f%s)",
                d.host, d.detect_time, d.by, d.fault_time,
                d.latency if not d.false_positive else float("nan"),
                ", FALSE POSITIVE" if d.false_positive else "",
            )
        return out
