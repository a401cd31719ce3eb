"""Execution traces: per-actor timelines shared by simulator and telemetry.

The same :class:`TraceEvent` schema carries *simulated* spans (emitted by
the discrete-event engine, ``source=""``/``"sim"``) and *measured* spans
(emitted by :class:`repro.telemetry.tracer.Tracer`, ``source="measured"``).
:meth:`Trace.merge` combines traces from different sources and
:meth:`Trace.to_chrome_trace` exports them to ``chrome://tracing`` JSON
with one process lane (``pid``) per source, so predicted and observed
timelines sit side by side in the viewer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple


class TraceEvent(NamedTuple):
    """One timed span on some actor's timeline.

    ``source`` tags where the event came from (e.g. ``"sim"`` vs
    ``"measured"``); events from different sources export to distinct
    Chrome-trace process lanes.  An immutable tuple rather than a frozen
    dataclass: the tracer builds one per measured span on every training
    step, and a tuple costs a third as much to build.
    """

    actor: str
    name: str
    start: float
    duration: float
    category: str = ""
    source: str = ""

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class Trace:
    """A collection of trace events with summary utilities."""

    events: list[TraceEvent] = field(default_factory=list)

    def record(
        self,
        actor: str,
        name: str,
        start: float,
        duration: float,
        category: str = "",
        source: str = "",
    ) -> None:
        if duration < 0:
            raise ValueError("duration must be non-negative")
        self.events.append(TraceEvent(actor, name, start, duration, category, source))

    def merge(self, other: "Trace", source: str | None = None) -> "Trace":
        """Append another trace's events (in place) and return ``self``.

        ``source`` re-tags the incoming events, which is how a simulated
        and a measured trace get distinct Chrome-trace ``pid`` lanes::

            merged = Trace()
            merged.merge(sim_trace, source="sim")
            merged.merge(tracer.trace, source="measured")
        """
        if source is None:
            self.events.extend(other.events)
        else:
            self.events.extend(e._replace(source=source) for e in other.events)
        return self

    def busy_time(self, actor: str) -> float:
        """Busy seconds on one actor, counting overlapping spans **once**.

        Concurrent spans on the same actor (e.g. a parent span enclosing
        its children, or simultaneous channel transfers) are merged into
        disjoint intervals before summing, so the result never exceeds the
        trace span — a plain sum of durations would over-count overlap.
        """
        intervals = sorted(
            (e.start, e.end) for e in self.events if e.actor == actor
        )
        busy = 0.0
        cur_start: float | None = None
        cur_end = 0.0
        for start, end in intervals:
            if cur_start is None or start > cur_end:
                if cur_start is not None:
                    busy += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_start is not None:
            busy += cur_end - cur_start
        return busy

    def span(self) -> tuple[float, float]:
        """(earliest start, latest end) over all events."""
        if not self.events:
            return (0.0, 0.0)
        return (
            min(e.start for e in self.events),
            max(e.end for e in self.events),
        )

    def utilization(self, actor: str) -> float:
        """Busy fraction of the actor over the whole trace span."""
        start, end = self.span()
        total = end - start
        if total <= 0:
            return 0.0
        return self.busy_time(actor) / total

    def actors(self) -> list[str]:
        return sorted({e.actor for e in self.events})

    def sources(self) -> list[str]:
        """Distinct event sources, unnamed (``""``) first, then sorted."""
        named = sorted({e.source for e in self.events if e.source})
        has_default = any(not e.source for e in self.events)
        return ([""] if has_default else []) + named

    def to_chrome_trace(self) -> list[dict]:
        """Events in Chrome ``chrome://tracing`` JSON format (microseconds).

        Each distinct event ``source`` gets its own ``pid`` (named via
        ``process_name`` metadata events), so merged simulated/measured
        traces render as separate process lanes; ``args`` carries the
        actor and category of every span.
        """
        sources = self.sources()
        pid_of = {src: i for i, src in enumerate(sources)}
        out: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": src or "trace"},
            }
            for src, pid in pid_of.items()
        ]
        for e in sorted(self.events, key=lambda e: e.start):
            out.append(
                {
                    "name": e.name,
                    "cat": e.category or "default",
                    "ph": "X",
                    "ts": e.start * 1e6,
                    "dur": e.duration * 1e6,
                    "pid": pid_of[e.source],
                    "tid": e.actor,
                    "args": {"actor": e.actor, "category": e.category},
                }
            )
        return out
