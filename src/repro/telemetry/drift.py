"""Model-vs-twin drift: the DES-twin rows of the fidelity table.

Every collective is timed twice: by the closed-form alpha-beta cost model
(:mod:`repro.comm.cost`, :mod:`repro.comm.allreduce`) that
:class:`~repro.core.step_time.StepTimeModel` plans with, and by the
link-level discrete-event simulation (:mod:`repro.comm.schedule`, the
:mod:`~repro.core.overlap` engine) of the same schedule.  Each (case,
phase) is one :class:`~repro.experiments.fidelity.Claim` with id
``drift/<case>/<phase>``: the DES twin is the reference, the closed form
the measured value, and the rule a relative drift (over the closed form)
of at most :data:`DEFAULT_TOLERANCE`.  ``python -m repro.telemetry.report
drift --tolerance 1e-6`` prints the rows judged at its tolerance, exports
``model_drift_rel{case,phase}`` gauges and exits 1 past it, so cost-model
rot fails CI.  Five families:

* **ring** — reduce-scatter and all-gather on a closed Y ring, an open X
  line and a small torus, and four contended model-peer rings on one pod
  against the closed form at a ``1/4`` bandwidth share;
* **2d** — the hierarchical all-reduce phase by phase (column rings, then
  row lines on the ``1/y`` shard) on 1, 2 and 4 pods, and the 4096-chip X
  phase under 2- and 4-way model parallelism
  (``ring/peer_contended_mp<k>_4096``);
* **steptime** — :meth:`StepTimeModel.allreduce_time` of each Table 1
  model at 4096 chips, in the configuration the planner picks, vs the DES
  of that all-reduce;
* **overlap** — the overlap engine's DES trace re-read by the
  critical-path analyzer (:mod:`repro.telemetry.critical_path`): its
  buckets reproduce the engine's step/exposed/hidden seconds, and the wire
  busy time equals the bucketed launch cost the step-time model charges;
* **spmd** — the SPMD estimator's price of one all-reduce and one
  all-gather on a k-core model tile (k = 2, 4, 8) vs the DES of the same
  collective on an open X line of k chips.
"""

from __future__ import annotations

from repro.comm.allreduce import two_phase_allreduce
from repro.comm.cost import all_gather_time, reduce_scatter_time, ring_cost_for
from repro.comm.schedule import simulate_ring_all_gather, simulate_ring_reduce_scatter
from repro.experiments.fidelity import Claim
from repro.hardware.rings import all_x_lines, all_y_rings, model_peer_ring, x_line, y_ring
from repro.hardware.topology import TorusMesh, multipod, single_pod, slice_for_chips
from repro.spmd.estimator import comm_op_seconds
from repro.telemetry import critical_path as _cp

#: Default acceptance ceiling on relative drift.  The two implementations
#: agree to ~1e-15 today; 1e-6 leaves three orders of headroom for float
#: noise while catching any real formula/scheduler divergence instantly.
DEFAULT_TOLERANCE = 1e-6

#: Payload used by the comm drift cases (1 MB: well past the latency-
#: dominated regime, well short of saturating float precision).
DEFAULT_PAYLOAD_BYTES = 1.0e6


def _row(case: str, phase: str, des: float | None, closed_form: float) -> Claim:
    return Claim(f"drift/{case}/{phase}", des, closed_form, f"drift {DEFAULT_TOLERANCE!r}")


def _closed_form(time_fn, mesh: TorusMesh, ring, fraction: float = 1.0) -> float:
    """``time_fn`` (a :mod:`repro.comm.cost` ring time) of one ring at
    ``fraction`` of its links' bandwidth."""
    c = ring_cost_for(mesh, ring)
    return time_fn(
        c.num_members, DEFAULT_PAYLOAD_BYTES, c.bandwidth, c.latency,
        closed=c.closed, hop_links=c.hop_links, bandwidth_fraction=fraction,
    )


def ring_drift() -> list[Claim]:
    """Single-ring collectives: DES schedule vs closed-form ring cost."""
    payload = DEFAULT_PAYLOAD_BYTES
    pod = single_pod()
    open_slice = slice_for_chips(512)  # 16x32: X is an open line
    small = TorusMesh(2, 4, wrap_y=True)
    rows = [
        _row(name, phase, simulate(mesh, ring, payload), _closed_form(time_fn, mesh, ring))
        for name, mesh, ring in (
            ("ring/pod_y_closed", pod, y_ring(pod, 0)),
            ("ring/slice_x_open", open_slice, x_line(open_slice, 0)),
            ("ring/small_torus_y", small, y_ring(small, 0)),
        )
        for phase, simulate, time_fn in (
            ("reduce_scatter", simulate_ring_reduce_scatter, reduce_scatter_time),
            ("all_gather", simulate_ring_all_gather, all_gather_time),
        )
    ]
    # Contended model-peer rings: mp rings share the X links, so the DES
    # must reproduce the 1/mp bandwidth share the analytic model charges.
    mp = 4
    rings = [model_peer_ring(pod, 0, mp, p) for p in range(mp)]
    return rows + [_row(
        "ring/peer_contended_mp4", "reduce_scatter",
        simulate_ring_reduce_scatter(pod, rings, payload),
        _closed_form(reduce_scatter_time, pod, rings[0], 1.0 / mp),
    )]


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


def two_phase_drift() -> list[Claim]:
    """The 2-D hierarchical all-reduce, phase by phase, DES vs breakdown, on
    1, 2 and 4 pods (X lines crossing pod boundaries), and the 4096-chip X
    phase under 2- and 4-way model parallelism: every row's peer rings hop
    over their model-parallel neighbours and share the X links."""
    payload = DEFAULT_PAYLOAD_BYTES
    rows: list[Claim] = []
    for pods in (1, 2, 4):
        mesh = multipod(pods)
        bd = two_phase_allreduce(mesh, payload)
        des = _two_phase_des(mesh, payload)
        rows += [
            _row(f"2d/multipod{pods}", phase, des[phase], getattr(bd, phase))
            for phase in _PHASES
        ]
    # The loop's last mesh is the 4096-chip Multipod; its Y phases are
    # already simulated (and cached) at this payload.
    for mp in (2, 4):
        bd = two_phase_allreduce(mesh, payload, mp_size=mp)
        des = _two_phase_des(mesh, payload, mp)
        rows += [
            _row(f"ring/peer_contended_mp{mp}_{mesh.num_chips}", phase,
                 des[phase], getattr(bd, phase))
            for phase in ("reduce_scatter_x", "all_gather_x")
        ]
    return rows


def steptime_drift() -> list[Claim]:
    """``StepTimeModel.allreduce_time`` vs the DES of the same all-reduce,
    per Table 1 model at 4096 chips in the configuration
    :func:`~repro.core.planner.plan_parallelism` picks (payload, mesh and
    model-parallel hop-over).  A configuration with no DES twin (the
    flat-ring baseline, one replica) gets a row that says so."""
    from repro.core.planner import plan_parallelism
    from repro.core.step_time import StepTimeModel
    from repro.experiments.calibration import spec_for
    from repro.experiments.table1 import TABLE1_ROWS

    num_chips = 4096
    rows: list[Claim] = []
    for name in dict.fromkeys(row[0] for row in TABLE1_ROWS):
        spec = spec_for(name)
        config = plan_parallelism(spec, num_chips).config
        model = StepTimeModel(spec, config)
        des = None
        if config.use_2d_allreduce and config.num_replicas > 1:
            phases = _two_phase_des(model.mesh, model.gradient_payload(), config.mp_chips)
            # Summed as ``AllReduceBreakdown.total`` sums its phases.
            des = (phases["reduce_scatter_y"] + phases["reduce_scatter_x"]) + (
                phases["all_gather_x"] + phases["all_gather_y"]
            )
        rows.append(_row(f"steptime/{name}_{num_chips}", "allreduce", des,
                         model.allreduce_time()))
    return rows


def overlap_drift() -> list[Claim]:
    """The overlap engine's own bookkeeping vs the critical-path buckets of
    its raw trace (and its wire busy time vs the bucketed launch cost), for
    ResNet-50, Transformer and BERT at 256 chips, global batch 8192."""
    from repro.core.step_time import StepTimeModel
    from repro.core.strategy import ParallelismConfig
    from repro.experiments.calibration import spec_for

    rows: list[Claim] = []
    for name in ("resnet50", "transformer", "bert"):
        model = StepTimeModel(
            spec_for(name), ParallelismConfig(num_chips=256, global_batch=8192)
        )
        ov = model.overlap_result()
        att = _cp.attribute(ov.trace)
        case = f"overlap/{name}"
        rows += [
            _row(case, "step", att.total, ov.step_seconds),
            _row(case, "exposed_comm", att.buckets["exposed_comm"], ov.exposed_comm_seconds),
            _row(case, "hidden_comm", att.buckets["hidden_comm"], ov.hidden_comm_seconds),
            _row(case, "wire_comm", ov.trace.busy_time("ici"),
                 model.bucketed_allreduce_time()),
        ]
    return rows


def spmd_drift() -> list[Claim]:
    """The partitioner's collectives: the price
    :func:`~repro.spmd.estimator.price_walk` charges one all-reduce and one
    all-gather on a k-core tile vs the DES on an open X line of k chips at
    the same link rates (reduce-scatter, then all-gather, for the
    all-reduce)."""
    payload = DEFAULT_PAYLOAD_BYTES
    rows: list[Claim] = []
    for k in (2, 4, 8):
        mesh = TorusMesh(k, 1)
        line = x_line(mesh, 0)
        gather = simulate_ring_all_gather(mesh, line, payload)
        twins = {
            "all_reduce": simulate_ring_reduce_scatter(mesh, line, payload) + gather,
            "all_gather": gather,
        }
        rows += [
            _row("spmd", f"{kind}_k{k}", des, comm_op_seconds(
                kind, payload, k, mesh.link_bandwidth, mesh.chip.link_latency))
            for kind, des in twins.items()
        ]
    return rows


def case_phase(row: Claim) -> tuple[str, str]:
    """The ``(case, phase)`` a twin row's id names."""
    return tuple(row.id.removeprefix("drift/").rsplit("/", 1))


def drift_report() -> list[Claim]:
    """Every twin row; exports a ``model_drift_rel`` gauge per twinned row
    and ``model_drift_max``."""
    from repro import telemetry

    rows = ring_drift() + two_phase_drift() + steptime_drift() + overlap_drift() + spmd_drift()
    if telemetry.enabled:
        for row in rows:
            if row.reference is not None:
                case, phase = case_phase(row)
                telemetry.metrics.gauge("model_drift_rel", case=case, phase=phase).set(row.error)
        telemetry.metrics.gauge("model_drift_max").set(max(r.error or 0.0 for r in rows))
    return rows
