"""Render telemetry into reports — the ``repro-telemetry`` console script.

This is the read side of the telemetry subsystem.  The CLI now has four
subcommands (a bare invocation still runs ``report``, keeping the PR 1
command lines working):

* ``report`` — drive the instrumented demo run and print the per-phase
  step breakdown plus headline counters (``--json`` for the
  machine-readable form);
* ``postmortem`` — run a seed-deterministic chip-death chaos run and
  write the flight recorder's postmortem bundle, or summarize an
  existing bundle file;
* ``critical-path`` — run the overlap engine for a calibrated model and
  print the critical-path attribution
  (:mod:`repro.telemetry.critical_path`);
* ``drift`` — the model-vs-measured drift table
  (:mod:`repro.telemetry.drift`), exit 1 past ``--tolerance``.

Key library entry points: :func:`step_breakdown` /
:func:`step_breakdown_data` (text and JSON-ready forms of the Table 3 /
Figure 6/8-style attribution), :func:`chrome_trace` /
:func:`write_chrome_trace` (merged ``chrome://tracing`` JSON with
measured and simulated spans on separate ``pid`` lanes plus counter
events), and :func:`demo_run` (a real
:class:`~repro.core.weight_update_sharding.WeightUpdateShardedTrainer`
run plus a fused :class:`~repro.runtime.mesh.VirtualMesh` all-reduce and
the discrete-event schedule of the same collective).

The ``print`` calls in the command handlers are the CLI's report output
and stay on stdout deliberately (diagnostics go through the
``repro.telemetry`` logger).
"""

from __future__ import annotations

import argparse
import json
import logging
from collections import defaultdict

import numpy as np

from repro import telemetry
from repro.sim.trace import Trace

logger = logging.getLogger("repro.telemetry")


def step_breakdown_data(trace: Trace | None = None, registry=None) -> dict:
    """JSON-ready per-phase aggregation of the measured spans.

    Returns ``{"step_seconds", "phases": [{category, name, seconds,
    calls, fraction}, ...], "counters": <registry snapshot>}`` — the data
    behind :func:`step_breakdown` and the body of ``report --json``.
    """
    trace = trace if trace is not None else telemetry.tracer.trace
    registry = registry if registry is not None else telemetry.metrics
    totals: dict[tuple[str, str], list[float]] = defaultdict(lambda: [0.0, 0])
    step_total = 0.0
    for e in trace.events:
        agg = totals[(e.category or "default", e.name)]
        agg[0] += e.duration
        agg[1] += 1
        if e.name == "train_step":
            step_total += e.duration
    if step_total <= 0.0:
        start, end = trace.span()
        step_total = end - start
    phases = [
        {
            "category": category,
            "name": name,
            "seconds": seconds,
            "calls": calls,
            "fraction": seconds / step_total if step_total > 0 else 0.0,
        }
        for (category, name), (seconds, calls) in sorted(
            totals.items(), key=lambda kv: -kv[1][0]
        )
    ]
    return {
        "step_seconds": step_total,
        "phases": phases,
        "counters": registry.snapshot(),
    }


def step_breakdown(trace: Trace | None = None, registry=None) -> str:
    """Aggregate spans into an aligned per-phase table.

    Rows are (category, span name) pairs with total seconds, call count,
    and percentage of the total ``train_step`` span time (or of the whole
    trace span when no step spans were recorded).  A second block lists
    every counter and gauge the registry holds, in name order — whatever
    subsystem registered it (histograms are left to the JSON snapshot).
    """
    data = step_breakdown_data(trace, registry)
    lines = [
        f"{'category':<10} {'span':<24} {'total_s':>10} {'calls':>7} {'% step':>7}",
        "-" * 62,
    ]
    for row in data["phases"]:
        lines.append(
            f"{row['category']:<10} {row['name']:<24} {row['seconds']:>10.4f} "
            f"{row['calls']:>7d} {100.0 * row['fraction']:>6.1f}%"
        )
    counter_lines = []
    for name, family in sorted(data["counters"].items()):
        if family["type"] == "histogram":
            continue
        for entry in family["values"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            label_part = f"{{{labels}}}" if labels else ""
            counter_lines.append(
                f"{name + label_part:<56} {entry['value']:>14.6g}"
            )
    if counter_lines:
        lines.append("")
        lines.append("counters")
        lines.append("-" * 62)
        lines.extend(counter_lines)
    return "\n".join(lines)


def chrome_trace(
    measured: Trace | None = None,
    sim_trace: Trace | None = None,
    registry=None,
) -> list[dict]:
    """Merged Chrome-trace events: measured + simulated spans + counters.

    Measured spans keep their ``"measured"`` source lane; ``sim_trace``
    events are re-tagged ``"sim"`` so the two render as separate processes
    in ``chrome://tracing``.  Final counter/gauge values from the registry
    are appended as Chrome counter events (``ph: "C"``) at the trace end,
    one per metric family, with one series per labeled child.
    """
    measured = measured if measured is not None else telemetry.tracer.trace
    registry = registry if registry is not None else telemetry.metrics
    merged = Trace().merge(measured)
    if sim_trace is not None:
        merged.merge(sim_trace, source="sim")
    events = merged.to_chrome_trace()
    _, end = merged.span()
    for name, family in registry.snapshot().items():
        if family["type"] == "histogram":
            continue
        series = {}
        for entry in family["values"]:
            label = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            series[label or "value"] = entry["value"]
        if series:
            events.append(
                {
                    "name": name,
                    "ph": "C",
                    "ts": end * 1e6,
                    "pid": 0,
                    "tid": "counters",
                    "args": series,
                }
            )
    return events


def write_chrome_trace(
    path: str,
    measured: Trace | None = None,
    sim_trace: Trace | None = None,
    registry=None,
) -> None:
    """Write merged Chrome-trace JSON (the ``traceEvents`` wrapper form)."""
    events = chrome_trace(measured, sim_trace, registry)
    with open(path, "w") as f:
        json.dump({"traceEvents": events}, f)
    logger.info("wrote %d chrome-trace events to %s", len(events), path)


def demo_run(
    x_size: int = 8, y_size: int = 4, steps: int = 3, seed: int = 0
) -> Trace:
    """Exercise the instrumented stack end to end; returns the sim trace.

    Runs (a) a fused :class:`WeightUpdateShardedTrainer` for ``steps``
    steps with ``x_size * y_size`` replicas, (b) a fused hierarchical
    all-reduce on an ``x_size x y_size`` :class:`VirtualMesh`, and (c) the
    discrete-event schedule of the same ring phases on a matching
    :class:`TorusMesh`, whose predicted phase times are returned as a
    ``Trace`` for merging against the measured spans.
    """
    from repro.comm.schedule import (
        simulate_ring_all_gather,
        simulate_ring_reduce_scatter,
    )
    from repro.core.trainer import TrainerConfig, make_trainer
    from repro.hardware.rings import all_y_rings
    from repro.hardware.topology import TorusMesh
    from repro.models.mlp import MLP
    from repro.optim.sgd import SGDMomentum
    from repro.runtime.mesh import VirtualMesh

    n = x_size * y_size
    rng = np.random.default_rng(seed)

    # (a) A real training run: every collective, bucket, and trainer span —
    #     in bucketed-overlap mode so the overlap_* counters and modeled
    #     schedule land in the report too.
    model = MLP([16, 32, 10])
    trainer = make_trainer(
        TrainerConfig(
            model=model,
            optimizer=SGDMomentum(learning_rate=0.05),
            strategy="wus",
            mesh_shape=(n, 1),
            num_buckets=min(4, n) if n > 1 else 1,
            overlap=n > 1,
            seed=seed,
        )
    )
    for _ in range(steps):
        x = rng.standard_normal((4 * n, 16))
        labels = rng.integers(0, 10, size=4 * n)
        trainer.step(x, labels)

    # (b) The 2-D hierarchical schedule on a virtual mesh of the same size.
    mesh = VirtualMesh(x_size, y_size)
    mesh.put_replicated("w", rng.standard_normal(4096).astype(np.float32))
    mesh.put_replicated("b", rng.standard_normal(512).astype(np.float32))
    mesh.all_reduce(["w", "b"], dtype_policy="f32")

    # (c) The discrete-event prediction of the same ring phases.
    torus = TorusMesh(x_size, y_size, wrap_y=True)
    payload = (4096 + 512) * 4.0
    rs = simulate_ring_reduce_scatter(torus, all_y_rings(torus), payload)
    ag = simulate_ring_all_gather(torus, all_y_rings(torus), payload)
    sim_trace = Trace()
    sim_trace.record("torus", "reduce_scatter_y", 0.0, rs, "comm")
    sim_trace.record("torus", "all_gather_y", rs, ag, "comm")
    # The modeled overlap schedule of the last step, on its own source lane.
    last_overlap = getattr(trainer, "last_overlap", None)
    if last_overlap is not None:
        sim_trace.merge(last_overlap.trace, source="overlap")
    return sim_trace


#: Subsystems the demo run does not exercise, as ``(counter prefixes, what
#: was idle, where those counters come from)``: the report says so instead
#: of leaving the reader to wonder where the failure accounting went.
_ABSENCE_NOTES = (
    (("resilience_", "controlplane_"), "chaos harness or control-plane",
     "Run `repro-experiments availability` for failure accounting."),
    (("service_",), "simulation-service",
     "Run `repro-service load` for the shedding and latency accounting."),
    (("spmd_search_",), "partitioner-search",
     "Run `repro-experiments spmd_search` for the candidate "
     "expansion/prune accounting."),
)


def cmd_report(args: argparse.Namespace) -> int:
    """``repro-telemetry report``: the instrumented demo + breakdown."""
    try:
        x_size, y_size = (int(p) for p in args.mesh.lower().split("x"))
    except ValueError:
        raise SystemExit(f"--mesh must look like 8x4, got {args.mesh!r}")
    telemetry.reset()
    sim_trace = demo_run(x_size, y_size, args.steps)
    if args.json:
        data = step_breakdown_data()
        data["mesh"] = [x_size, y_size]
        data["steps"] = args.steps
        print(json.dumps(data, indent=2))
    else:
        print(f"telemetry report — {x_size}x{y_size} mesh, {args.steps} steps")
        print()
        print(step_breakdown())
        snap = telemetry.metrics.snapshot()
        for prefixes, what, hint in _ABSENCE_NOTES:
            if not any(name.startswith(prefixes) for name in snap):
                families = " or ".join(f"{prefix}*" for prefix in prefixes)
                print()
                print(
                    f"note: no {families} counters were recorded — this run "
                    f"had no {what} activity. {hint}"
                )
    write_chrome_trace(args.trace_out, sim_trace=sim_trace)
    if not args.json:
        print()
        print(f"chrome trace written to {args.trace_out} (open in chrome://tracing)")
    if args.metrics_out:
        with open(args.metrics_out, "w") as f:
            f.write(telemetry.metrics.to_json())
        if not args.json:
            print(f"metrics snapshot written to {args.metrics_out}")
    return 0


def cmd_postmortem(args: argparse.Namespace) -> int:
    """``repro-telemetry postmortem``: dump or summarize a bundle.

    With ``--demo`` (or no bundle path) a seed-deterministic chaos run
    exterminates a 2x2 fleet so the flight recorder dumps a real bundle;
    with a path, an existing bundle file is summarized.
    """
    if args.bundle is not None:
        with open(args.bundle) as f:
            bundle = json.load(f)
    else:
        from repro.experiments.availability import postmortem_demo

        telemetry.reset()
        table = postmortem_demo(seed=args.seed)
        print(table.format())
        print()
        bundle = telemetry.flight_recorder.last_postmortem
        if bundle is None:
            raise SystemExit("demo run produced no postmortem bundle")
        if args.out:
            with open(args.out, "w") as f:
                json.dump(bundle, f, indent=2)
            print(f"postmortem bundle written to {args.out}")
            print()
    if args.json:
        print(json.dumps(bundle, indent=2))
        return 0
    records = bundle.get("records", [])
    kinds: dict[str, int] = defaultdict(int)
    for r in records:
        kinds[r["kind"]] += 1
    fault = bundle.get("fault")
    print(f"postmortem bundle ({bundle.get('schema', '?')})")
    print(f"  reason:  {bundle.get('reason', '?')}")
    if fault:
        print(f"  fault:   {fault['type']}: {fault['message']}")
    print(f"  records: {len(records)} (capacity {bundle.get('capacity')})")
    for kind in sorted(kinds):
        print(f"    {kind:<10} {kinds[kind]}")
    tail = records[-args.tail:] if args.tail > 0 else []
    if tail:
        print(f"  last {len(tail)} records:")
        for r in tail:
            print(f"    t={r['t']:.6f} [{r['kind']}] {r['name']}")
    return 0


def cmd_critical_path(args: argparse.Namespace) -> int:
    """``repro-telemetry critical-path``: attribution of a modeled step."""
    from repro.core.step_time import StepTimeModel
    from repro.core.strategy import ParallelismConfig
    from repro.experiments.calibration import spec_for
    from repro.telemetry import critical_path as cp

    model = StepTimeModel(
        spec_for(args.model),
        ParallelismConfig(num_chips=args.chips, global_batch=args.batch),
    )
    ov = model.overlap_result()
    result = cp.analyze(ov.trace)
    if args.json:
        print(json.dumps(result.to_json(), indent=2))
        return 0
    print(
        f"critical path — {args.model}, {args.chips} chips, "
        f"global batch {args.batch} ({ov.num_buckets} buckets)"
    )
    print()
    print(cp.format_result(result))
    return 0


def cmd_drift(args: argparse.Namespace) -> int:
    """``repro-telemetry drift``: the fidelity table's twin rows, judged at
    ``--tolerance``; exit 1 past it."""
    from repro.experiments.fidelity import failures
    from repro.telemetry import drift

    rows = [r._replace(rule=f"drift {args.tolerance!r}") for r in drift.drift_report()]
    bad = failures(rows)
    if args.json:
        print(json.dumps([
            dict(zip(("case", "phase"), drift.case_phase(r)), measured_s=r.reference,
                 predicted_s=r.measured, drift_rel=r.error or 0.0)
            for r in rows
        ], indent=2))
        return 1 if bad else 0
    print(f"{'case':<30} {'phase':<18} {'measured':>14} {'predicted':>14} {'drift':>10}")
    print("-" * 90)
    for r in rows:
        case, phase = drift.case_phase(r)
        if r.reference is None:
            print(f"{case:<30} {phase:<18} {'no DES twin':>14} {r.measured:>14.6e} {'-':>10}")
            continue
        flag = "  << DRIFT" if r in bad else ""
        print(f"{case:<30} {phase:<18} {r.reference:>14.6e} "
              f"{r.measured:>14.6e} {r.error:>10.2e}{flag}")
    print("-" * 90)
    worst = max((r.error or 0.0 for r in rows), default=0.0)
    print(f"max relative drift: {worst:.2e} (tolerance {args.tolerance:.0e})")
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-telemetry",
        description="Telemetry reports: step breakdown, postmortem bundles, "
        "critical-path attribution, model-vs-measured drift.",
    )
    sub = parser.add_subparsers(dest="command")

    p_report = sub.add_parser(
        "report", help="run the instrumented demo and print the breakdown"
    )
    p_report.add_argument("--mesh", default="8x4", help="mesh as XxY (default 8x4)")
    p_report.add_argument("--steps", type=int, default=3, help="training steps")
    p_report.add_argument(
        "--trace-out", default="telemetry_trace.json",
        help="Chrome-trace JSON output path",
    )
    p_report.add_argument(
        "--metrics-out", default=None,
        help="optional metrics snapshot JSON output path",
    )
    p_report.add_argument(
        "--json", action="store_true", help="machine-readable breakdown"
    )
    p_report.set_defaults(func=cmd_report)

    p_pm = sub.add_parser(
        "postmortem",
        help="dump a flight-recorder bundle from a chaos demo, or summarize one",
    )
    p_pm.add_argument(
        "bundle", nargs="?", default=None,
        help="existing bundle JSON to summarize (omit to run the demo)",
    )
    p_pm.add_argument("--seed", type=int, default=7, help="demo fault-plan seed")
    p_pm.add_argument(
        "--out", default="postmortem.json",
        help="where the demo writes its bundle (default postmortem.json)",
    )
    p_pm.add_argument(
        "--tail", type=int, default=8, help="ring records to print (default 8)"
    )
    p_pm.add_argument("--json", action="store_true", help="print the full bundle")
    p_pm.set_defaults(func=cmd_postmortem)

    p_cp = sub.add_parser(
        "critical-path",
        help="critical-path attribution of a modeled overlap step",
    )
    p_cp.add_argument("--model", default="resnet50", help="calibrated model name")
    p_cp.add_argument("--chips", type=int, default=256, help="slice size")
    p_cp.add_argument("--batch", type=int, default=8192, help="global batch")
    p_cp.add_argument("--json", action="store_true", help="machine-readable result")
    p_cp.set_defaults(func=cmd_critical_path)

    p_drift = sub.add_parser(
        "drift", help="model-vs-measured drift table (exit 1 past tolerance)"
    )
    p_drift.add_argument(
        "--tolerance", type=float, default=1e-6,
        help="max relative drift (default 1e-6)",
    )
    p_drift.add_argument("--json", action="store_true", help="machine-readable table")
    p_drift.set_defaults(func=cmd_drift)

    # Back-compat: a bare `repro-telemetry --mesh 8x4` (the PR 1 command
    # line) still runs the report.
    if argv is None:
        import sys as _sys

        argv = _sys.argv[1:]
    if not argv or argv[0] not in (
        "report", "postmortem", "critical-path", "drift", "-h", "--help"
    ):
        argv = ["report", *argv]
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
