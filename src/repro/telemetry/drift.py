"""Model-vs-measured drift: does the cost model still match the simulator?

The repo carries two independent implementations of every collective's
timing: the closed-form alpha-beta cost model
(:mod:`repro.comm.cost` / :mod:`repro.comm.allreduce`) that the
:class:`~repro.core.step_time.StepTimeModel` plans with, and the
link-level discrete-event simulation (:mod:`repro.comm.schedule`, the
:mod:`~repro.core.overlap` channel engine) that plays the same schedule
out event by event.  They are supposed to agree to float round-off — the
DESIGN §6 validation tests pin exactly that — and this module turns that
agreement into a *continuously checked gauge*: per-phase relative drift
between "measured" (DES / trace-derived) and "predicted" (closed form),
exported as ``model_drift_rel{case,phase}`` gauges and gated by
``python -m repro.telemetry.report drift --tolerance 1e-6`` so silent
cost-model rot (someone edits the analytic formula, forgets the
scheduler, or vice versa) fails CI instead of quietly skewing every
capacity plan built on the model.

Four drift families:

* **ring** — one ring collective: DES ``simulate_ring_reduce_scatter`` /
  ``all_gather`` vs :func:`repro.comm.cost.reduce_scatter_time` /
  ``all_gather_time`` on the same :func:`ring_cost_for` parameters;
* **2d** — the hierarchical gradient all-reduce, phase by phase: DES per
  phase (column rings, then row lines on the ``1/y`` shard) vs the
  matching :class:`~repro.comm.allreduce.AllReduceBreakdown` field, up to
  the paper's 4096-chip Multipod and its model-parallel peer rings;
* **steptime** — :meth:`StepTimeModel.allreduce_time` of each Table 1
  model at 4096 chips, in the configuration the planner picks, vs the DES
  of that all-reduce;
* **overlap** — the overlap engine's DES trace, re-read through the
  critical-path analyzer (:mod:`repro.telemetry.critical_path`): the
  attribution buckets must reproduce the engine's own
  exposed/hidden/step numbers, and the wire busy time must equal the
  bucketed launch cost the step-time model charges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.comm.allreduce import two_phase_allreduce
from repro.comm.cost import all_gather_time, reduce_scatter_time, ring_cost_for
from repro.comm.schedule import (
    simulate_ring_all_gather,
    simulate_ring_reduce_scatter,
)
from repro.hardware.rings import (
    all_x_lines,
    all_y_rings,
    model_peer_ring,
    x_line,
    y_ring,
)
from repro.hardware.topology import TorusMesh, multipod, single_pod, slice_for_chips
from repro.telemetry import critical_path as _cp

#: Default acceptance ceiling on relative drift.  The two implementations
#: agree to ~1e-15 today; 1e-6 leaves three orders of headroom for float
#: noise while catching any real formula/scheduler divergence instantly.
DEFAULT_TOLERANCE = 1e-6

#: Payload used by the comm drift cases (1 MB: well past the latency-
#: dominated regime, well short of saturating float precision).
DEFAULT_PAYLOAD_BYTES = 1.0e6

#: Relative-drift denominator floor (1 ns), so an all-zero phase (e.g.
#: hidden comm on a non-overlapping model) compares absolutely at a scale
#: no modeled collective ever dips under.
_DENOM_FLOOR = 1e-9


@dataclass(frozen=True)
class DriftEntry:
    """One measured-vs-predicted comparison for a (case, phase) pair.

    ``measured_s`` is ``None`` when the case has no DES twin: the row is
    reported, with nothing to gate.
    """

    case: str
    phase: str
    measured_s: float | None
    predicted_s: float

    @property
    def drift_rel(self) -> float:
        if self.measured_s is None:
            return 0.0
        denom = max(abs(self.predicted_s), _DENOM_FLOOR)
        return abs(self.measured_s - self.predicted_s) / denom

    def to_json(self) -> dict:
        return {
            "case": self.case,
            "phase": self.phase,
            "measured_s": self.measured_s,
            "predicted_s": self.predicted_s,
            "drift_rel": self.drift_rel,
        }


def _ring_pair(mesh: TorusMesh, ring, payload: float, frac: float = 1.0):
    """(measured, predicted) reduce-scatter seconds for one ring config."""
    c = ring_cost_for(mesh, ring)
    predicted = reduce_scatter_time(
        c.num_members, payload, c.bandwidth, c.latency,
        closed=c.closed, hop_links=c.hop_links, bandwidth_fraction=frac,
    )
    return predicted


def ring_drift(payload_bytes: float = DEFAULT_PAYLOAD_BYTES) -> list[DriftEntry]:
    """Single-ring collectives: DES schedule vs closed-form ring cost."""
    entries: list[DriftEntry] = []
    pod = single_pod()
    open_slice = slice_for_chips(512)  # 16x32: X is an open line

    cases = [
        ("ring/pod_y_closed", pod, y_ring(pod, 0), 1.0),
        ("ring/slice_x_open", open_slice, x_line(open_slice, 0), 1.0),
        ("ring/small_torus_y", TorusMesh(2, 4, wrap_y=True), None, 1.0),
    ]
    for name, mesh, ring, frac in cases:
        if ring is None:
            ring = y_ring(mesh, 0)
        entries.append(DriftEntry(
            name, "reduce_scatter",
            measured_s=simulate_ring_reduce_scatter(mesh, ring, payload_bytes),
            predicted_s=_ring_pair(mesh, ring, payload_bytes, frac),
        ))
        c = ring_cost_for(mesh, ring)
        entries.append(DriftEntry(
            name, "all_gather",
            measured_s=simulate_ring_all_gather(mesh, ring, payload_bytes),
            predicted_s=all_gather_time(
                c.num_members, payload_bytes, c.bandwidth, c.latency,
                closed=c.closed, hop_links=c.hop_links,
            ),
        ))

    # Contended model-peer rings: mp rings share the X links, so the DES
    # must reproduce the 1/mp bandwidth share the analytic model charges.
    mp = 4
    rings = [model_peer_ring(pod, 0, mp, p) for p in range(mp)]
    entries.append(DriftEntry(
        "ring/peer_contended_mp4", "reduce_scatter",
        measured_s=simulate_ring_reduce_scatter(pod, rings, payload_bytes),
        predicted_s=_ring_pair(pod, rings[0], payload_bytes, 1.0 / mp),
    ))
    return entries


_PHASES = ("reduce_scatter_y", "reduce_scatter_x", "all_gather_x", "all_gather_y")


def _two_phase_des(
    mesh: TorusMesh, payload_bytes: float, mp_size: int = 1
) -> dict[str, float]:
    """DES seconds of each phase of ``two_phase_allreduce(mesh,
    payload_bytes, mp_size=mp_size)``: every Y ring, then every X line (or
    every row's peer rings under model parallelism) on the ``1/y`` shard."""
    y_rings = all_y_rings(mesh)
    if mp_size == 1:
        x_rings = all_x_lines(mesh)
    else:
        x_rings = [
            model_peer_ring(mesh, y, mp_size, p)
            for y in range(mesh.y_size) for p in range(mp_size)
        ]
    shard = payload_bytes / mesh.y_size
    return {
        "reduce_scatter_y": simulate_ring_reduce_scatter(mesh, y_rings, payload_bytes),
        "reduce_scatter_x": simulate_ring_reduce_scatter(mesh, x_rings, shard),
        "all_gather_x": simulate_ring_all_gather(mesh, x_rings, shard),
        "all_gather_y": simulate_ring_all_gather(mesh, y_rings, payload_bytes),
    }


def two_phase_drift(
    payload_bytes: float = DEFAULT_PAYLOAD_BYTES,
) -> list[DriftEntry]:
    """The 2-D hierarchical all-reduce, phase by phase, DES vs breakdown.

    On one pod and on the 2- and 4-pod Multipods (1 024 / 2 048 / 4 096
    chips, X lines crossing pod boundaries), and the X phase of the 4096-chip
    all-reduce under 2- and 4-way model parallelism: every row's peer rings
    hop over their model-parallel neighbours and share the X links.
    """
    entries: list[DriftEntry] = []
    for pods in (1, 2, 4):
        mesh = multipod(pods)
        bd = two_phase_allreduce(mesh, payload_bytes)
        des = _two_phase_des(mesh, payload_bytes)
        entries += [
            DriftEntry(f"2d/multipod{pods}", phase, des[phase], getattr(bd, phase))
            for phase in _PHASES
        ]
    # The loop's last mesh is the 4096-chip Multipod; its Y phases are
    # already simulated (and cached) at this payload.
    for mp in (2, 4):
        bd = two_phase_allreduce(mesh, payload_bytes, mp_size=mp)
        des = _two_phase_des(mesh, payload_bytes, mp)
        entries += [
            DriftEntry(f"ring/peer_contended_mp{mp}_{mesh.num_chips}", phase,
                       des[phase], getattr(bd, phase))
            for phase in ("reduce_scatter_x", "all_gather_x")
        ]
    return entries


def steptime_drift() -> list[DriftEntry]:
    """``StepTimeModel.allreduce_time`` vs the DES of the same all-reduce,
    one row per Table 1 model at its payload on the 4096-chip Multipod.

    Each model runs the configuration :func:`~repro.core.planner.plan_parallelism`
    picks for it on that slice, so the row prices the payload, mesh and
    model-parallel hop-over the step-time model charges.  A configuration
    whose all-reduce has no DES twin (the flat-ring baseline, or a single
    replica) gets a row that says so.
    """
    from repro.core.planner import plan_parallelism
    from repro.core.step_time import StepTimeModel
    from repro.experiments.calibration import spec_for
    from repro.experiments.table1 import TABLE1_ROWS

    num_chips = 4096
    entries: list[DriftEntry] = []
    for name in dict.fromkeys(row[0] for row in TABLE1_ROWS):
        spec = spec_for(name)
        config = plan_parallelism(spec, num_chips).config
        model = StepTimeModel(spec, config)
        measured = None
        if config.use_2d_allreduce and config.num_replicas > 1:
            des = _two_phase_des(model.mesh, model.gradient_payload(), config.mp_chips)
            # Summed as ``AllReduceBreakdown.total`` sums its phases.
            measured = (des["reduce_scatter_y"] + des["reduce_scatter_x"]) + (
                des["all_gather_x"] + des["all_gather_y"]
            )
        entries.append(DriftEntry(
            f"steptime/{name}_{num_chips}", "allreduce", measured, model.allreduce_time()
        ))
    return entries


def overlap_drift(
    models: Sequence[str] = ("resnet50", "transformer", "bert"),
    num_chips: int = 256,
    global_batch: int = 8192,
) -> list[DriftEntry]:
    """Overlap-engine DES trace, re-read through the critical-path analyzer.

    The attribution buckets are computed from the raw trace events alone;
    the engine's ``OverlapResult`` numbers come from its own bookkeeping.
    Agreement here certifies both the overlap engine's accounting and the
    analyzer's sweep, and ties the wire busy time back to the step-time
    model's bucketed launch cost.
    """
    from repro.core.step_time import StepTimeModel
    from repro.core.strategy import ParallelismConfig
    from repro.experiments.calibration import spec_for

    entries: list[DriftEntry] = []
    for name in models:
        model = StepTimeModel(
            spec_for(name),
            ParallelismConfig(num_chips=num_chips, global_batch=global_batch),
        )
        ov = model.overlap_result()
        att = _cp.attribute(ov.trace)
        case = f"overlap/{name}"
        entries.extend([
            DriftEntry(case, "step",
                       att.total, ov.step_seconds),
            DriftEntry(case, "exposed_comm",
                       att.buckets["exposed_comm"], ov.exposed_comm_seconds),
            DriftEntry(case, "hidden_comm",
                       att.buckets["hidden_comm"], ov.hidden_comm_seconds),
            DriftEntry(case, "wire_comm",
                       ov.trace.busy_time("ici"),
                       model.bucketed_allreduce_time()),
        ])
    return entries


def drift_report(
    payload_bytes: float = DEFAULT_PAYLOAD_BYTES,
    *,
    include_overlap: bool = True,
) -> list[DriftEntry]:
    """All drift entries; exports ``model_drift_rel`` gauges per entry."""
    from repro import telemetry

    entries = (
        ring_drift(payload_bytes) + two_phase_drift(payload_bytes) + steptime_drift()
    )
    if include_overlap:
        entries += overlap_drift()
    if telemetry.enabled:
        for e in entries:
            if e.measured_s is None:
                continue
            telemetry.metrics.gauge(
                "model_drift_rel", case=e.case, phase=e.phase
            ).set(e.drift_rel)
        telemetry.metrics.gauge("model_drift_max").set(max_drift(entries))
    return entries


def max_drift(entries: Iterable[DriftEntry]) -> float:
    return max((e.drift_rel for e in entries), default=0.0)


def check_drift(
    entries: Iterable[DriftEntry] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[bool, list[DriftEntry]]:
    """(ok, offending entries) — the CI gate's decision function."""
    entries = list(entries) if entries is not None else drift_report()
    bad = [e for e in entries if e.drift_rel > tolerance]
    return (not bad, bad)


def format_report(
    entries: Sequence[DriftEntry], tolerance: float | None = None
) -> str:
    """Aligned drift table, one row per (case, phase)."""
    lines = [
        f"{'case':<30} {'phase':<18} {'measured':>14} {'predicted':>14} {'drift':>10}",
        "-" * 90,
    ]
    for e in entries:
        flag = ""
        if tolerance is not None and e.drift_rel > tolerance:
            flag = "  << DRIFT"
        if e.measured_s is None:
            lines.append(
                f"{e.case:<30} {e.phase:<18} {'no DES twin':>14} "
                f"{e.predicted_s:>14.6e} {'-':>10}"
            )
            continue
        lines.append(
            f"{e.case:<30} {e.phase:<18} {e.measured_s:>14.6e} "
            f"{e.predicted_s:>14.6e} {e.drift_rel:>10.2e}{flag}"
        )
    lines.append("-" * 90)
    worst = max_drift(entries)
    tail = f" (tolerance {tolerance:.0e})" if tolerance is not None else ""
    lines.append(f"max relative drift: {worst:.2e}{tail}")
    return "\n".join(lines)
