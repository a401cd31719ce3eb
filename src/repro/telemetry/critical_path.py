"""Critical-path analysis and step-time attribution over trace events.

The DES schedules and the measured tracer both emit
:class:`~repro.sim.trace.TraceEvent` spans; this module turns a bag of
those spans back into the two questions an operator actually asks:

* **Where did the step go?**  :func:`attribute` classifies every instant
  of the step window into exactly one bucket — ``compute`` (device busy,
  no collective on the wire), ``hidden_comm`` (collective overlapped by
  compute — the overlap engine's whole point), ``exposed_comm``
  (collective past the end of compute — the only all-reduce share a step
  should be charged), ``input_stall``, ``barrier_wait``, ``other``
  (spans of unmapped categories), and ``idle``.  Because the
  classification partitions the timeline, the buckets **sum to the
  measured step time exactly** — the invariant the drift gate leans on.

* **What was the bottleneck chain?**  :func:`critical_path` reconstructs
  the dependency DAG implied by span timing — event B depends on the
  latest-ending event A that finishes by B's start (same-actor contact
  preferred, since a serialized resource is the strongest dependency) —
  and walks it backward from the last-ending event.  Gaps on the chain
  surface as per-segment ``wait_s``.  :func:`device_slack` reports, per
  actor, how much later that actor could have run without stretching the
  step — the scheduler's headroom number.

Categories map onto buckets via :data:`CATEGORY_GROUPS`; container spans
(a ``train_step`` wrapping its phases) are excluded so the enclosing span
does not double-cover its children.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.trace import Trace, TraceEvent

#: Attribution buckets, in reporting order.
BUCKETS = (
    "compute",
    "exposed_comm",
    "hidden_comm",
    "input_stall",
    "barrier_wait",
    "other",
    "idle",
)

#: Trace-event category -> classification group.  ``update`` counts as
#: compute (the optimizer runs on the device's vector units), ``input`` and
#: ``stall`` as input-pipeline time.  Unmapped categories classify as
#: ``other`` so the partition stays exhaustive on arbitrary traces.
CATEGORY_GROUPS: dict[str, str] = {
    "compute": "compute",
    "update": "compute",
    "comm": "comm",
    "input": "input",
    "stall": "input",
    "barrier": "barrier",
}

#: Categories whose spans *contain* other spans (the step wrapper, the
#: overlap-modeling span, chaos restarts): excluded from the instant
#: classification so a parent does not shadow its children.
CONTAINER_CATEGORIES = frozenset({"step", "overlap", "resilience"})

#: Contact tolerance when chaining events into dependencies: float
#: round-off from summing DES event times, far below any real span.
CONTACT_EPS = 1e-9


@dataclass(frozen=True)
class Attribution:
    """Per-bucket seconds over one step window; buckets partition it."""

    buckets: dict[str, float]
    window: tuple[float, float]

    @property
    def total(self) -> float:
        """Sum over buckets — equal to the window length by construction."""
        return sum(self.buckets.values())

    @property
    def window_seconds(self) -> float:
        return self.window[1] - self.window[0]

    def fraction(self, bucket: str) -> float:
        total = self.window_seconds
        return self.buckets.get(bucket, 0.0) / total if total > 0 else 0.0

    def to_json(self) -> dict:
        return {
            "window": list(self.window),
            "window_seconds": self.window_seconds,
            "buckets": {k: self.buckets.get(k, 0.0) for k in BUCKETS},
        }


@dataclass(frozen=True)
class PathSegment:
    """One event on the critical path, plus the dead wait preceding it."""

    event: TraceEvent
    wait_s: float


@dataclass(frozen=True)
class CriticalPathResult:
    """Attribution + bottleneck chain + per-actor slack of one trace."""

    attribution: Attribution
    path: tuple[PathSegment, ...]
    slack: dict[str, float]

    @property
    def makespan(self) -> float:
        return self.attribution.window_seconds

    def to_json(self) -> dict:
        return {
            "makespan_seconds": self.makespan,
            "attribution": self.attribution.to_json(),
            "critical_path": [
                {
                    "actor": s.event.actor,
                    "name": s.event.name,
                    "start": s.event.start,
                    "duration": s.event.duration,
                    "category": s.event.category,
                    "wait_s": s.wait_s,
                }
                for s in self.path
            ],
            "slack": dict(sorted(self.slack.items())),
        }


def _classified_events(
    trace: Trace, source: str | None
) -> list[TraceEvent]:
    """Events participating in classification (containers dropped)."""
    return [
        e
        for e in trace.events
        if e.category not in CONTAINER_CATEGORIES
        and (source is None or e.source == source)
        and e.duration >= 0.0
    ]


def attribute(
    trace: Trace,
    window: tuple[float, float] | None = None,
    source: str | None = None,
) -> Attribution:
    """Partition the step window into the :data:`BUCKETS` — sums exactly.

    A boundary sweep over the (clamped) event endpoints classifies every
    inter-boundary segment by which groups are active on it:

    ======================  ==============
    active groups           bucket
    ======================  ==============
    compute and comm        ``hidden_comm``
    compute, no comm        ``compute``
    comm, no compute        ``exposed_comm``
    input only              ``input_stall``
    barrier (none above)    ``barrier_wait``
    anything unmapped       ``other``
    nothing                 ``idle``
    ======================  ==============

    ``window`` defaults to the trace span; ``source`` restricts to one
    event source (e.g. ``"measured"`` in a merged trace).
    """
    events = _classified_events(trace, source)
    if window is None:
        if not events:
            return Attribution({b: 0.0 for b in BUCKETS}, (0.0, 0.0))
        window = (
            min(e.start for e in events),
            max(e.end for e in events),
        )
    w0, w1 = window
    if w1 < w0:
        raise ValueError("window end precedes window start")

    # Boundary sweep: +1/-1 per group at each clamped event edge.
    deltas: dict[float, dict[str, int]] = {}
    for e in events:
        start = max(w0, e.start)
        end = min(w1, e.end)
        if end <= start:
            continue
        group = CATEGORY_GROUPS.get(e.category or "", "other")
        deltas.setdefault(start, {}).setdefault(group, 0)
        deltas[start][group] += 1
        deltas.setdefault(end, {}).setdefault(group, 0)
        deltas[end][group] -= 1

    buckets = {b: 0.0 for b in BUCKETS}
    bounds = sorted(set(deltas) | {w0, w1})
    active = {g: 0 for g in ("compute", "comm", "input", "barrier", "other")}
    prev = w0
    for t in bounds:
        if t > prev:
            seg = t - prev
            if active["compute"] > 0 and active["comm"] > 0:
                buckets["hidden_comm"] += seg
            elif active["compute"] > 0:
                buckets["compute"] += seg
            elif active["comm"] > 0:
                buckets["exposed_comm"] += seg
            elif active["input"] > 0:
                buckets["input_stall"] += seg
            elif active["barrier"] > 0:
                buckets["barrier_wait"] += seg
            elif active["other"] > 0:
                buckets["other"] += seg
            else:
                buckets["idle"] += seg
        for group, d in deltas.get(t, {}).items():
            active[group] += d
        prev = t
    if w1 > prev:  # no events at all inside the window
        buckets["idle"] += w1 - prev
    return Attribution(buckets, (w0, w1))


def critical_path(
    trace: Trace,
    window: tuple[float, float] | None = None,
    source: str | None = None,
) -> tuple[PathSegment, ...]:
    """The bottleneck chain ending at the last-finishing event.

    Dependency rule: an event's predecessor is the event with the latest
    end time not after its start (within :data:`CONTACT_EPS`); among
    ties, a same-actor predecessor wins (a serialized resource is the
    hardest dependency to break).  The gap between a predecessor's end
    and the event's start is reported as the segment's ``wait_s`` —
    time the chain spent blocked on something the trace did not record.
    """
    events = _classified_events(trace, source)
    if window is not None:
        w0, w1 = window
        events = [e for e in events if e.start >= w0 - CONTACT_EPS and e.end <= w1 + CONTACT_EPS]
    if not events:
        return ()
    by_end = sorted(events, key=lambda e: (e.end, e.duration))
    current = by_end[-1]
    segments: list[PathSegment] = []
    # Zero-duration events sharing a timestamp satisfy each other's
    # predecessor condition; the visited set keeps the backward walk from
    # cycling through them and guarantees termination in <= len(events) steps.
    visited: set[int] = {id(current)}
    while True:
        candidates = [
            e
            for e in events
            if id(e) not in visited and e.end <= current.start + CONTACT_EPS
        ]
        if not candidates:
            segments.append(PathSegment(current, wait_s=max(0.0, current.start - (window[0] if window else min(e.start for e in events)))))
            break
        best_end = max(e.end for e in candidates)
        contact = [e for e in candidates if e.end >= best_end - CONTACT_EPS]
        same_actor = [e for e in contact if e.actor == current.actor]
        pred = (same_actor or contact)[0]
        segments.append(
            PathSegment(current, wait_s=max(0.0, current.start - pred.end))
        )
        current = pred
        visited.add(id(pred))
    segments.reverse()
    return tuple(segments)


def device_slack(
    trace: Trace,
    window: tuple[float, float] | None = None,
    source: str | None = None,
) -> dict[str, float]:
    """Per-actor slack: makespan minus the actor's busy time.

    An actor with zero slack is busy for the whole step — it *is* the
    critical resource; large slack marks devices/links the scheduler
    could load harder without stretching the step.
    """
    events = _classified_events(trace, source)
    if not events:
        return {}
    if window is None:
        window = (
            min(e.start for e in events),
            max(e.end for e in events),
        )
    w0, w1 = window
    makespan = w1 - w0
    sub = Trace(events=[e for e in events if e.end > w0 and e.start < w1])
    return {
        actor: max(0.0, makespan - sub.busy_time(actor))
        for actor in sub.actors()
    }


def analyze(
    trace: Trace,
    window: tuple[float, float] | None = None,
    source: str | None = None,
) -> CriticalPathResult:
    """Attribution + critical path + slack in one pass (shared window)."""
    events = _classified_events(trace, source)
    if window is None and events:
        window = (
            min(e.start for e in events),
            max(e.end for e in events),
        )
    return CriticalPathResult(
        attribution=attribute(trace, window, source),
        path=critical_path(trace, window, source),
        slack=device_slack(trace, window, source),
    )


def format_result(result: CriticalPathResult, max_path: int = 12) -> str:
    """Aligned text rendering of one analysis (the CLI's output body)."""
    lines = [
        f"{'bucket':<14} {'seconds':>12} {'% step':>8}",
        "-" * 38,
    ]
    for bucket in BUCKETS:
        seconds = result.attribution.buckets.get(bucket, 0.0)
        if seconds == 0.0 and bucket in ("other", "idle"):
            continue
        lines.append(
            f"{bucket:<14} {seconds:>12.6g} {100.0 * result.attribution.fraction(bucket):>7.1f}%"
        )
    lines.append("-" * 38)
    lines.append(
        f"{'total':<14} {result.attribution.total:>12.6g} "
        f"(step {result.makespan:.6g}s)"
    )
    if result.path:
        lines.append("")
        lines.append(f"critical path ({len(result.path)} events):")
        shown = result.path if len(result.path) <= max_path else result.path[-max_path:]
        if len(result.path) > max_path:
            lines.append(f"  ... {len(result.path) - max_path} earlier events elided ...")
        for seg in shown:
            wait = f" (+{seg.wait_s:.3g}s wait)" if seg.wait_s > 0 else ""
            lines.append(
                f"  {seg.event.actor:<12} {seg.event.name:<24} "
                f"t={seg.event.start:.6g}s dur={seg.event.duration:.6g}s{wait}"
            )
    if result.slack:
        lines.append("")
        lines.append("per-actor slack:")
        for actor, slack in sorted(result.slack.items(), key=lambda kv: kv[1]):
            lines.append(f"  {actor:<12} {slack:>12.6g}s")
    return "\n".join(lines)
