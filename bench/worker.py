"""One measurement process: set-up, warm-up, timed passes, checks, one JSON line.

``run.py`` starts this file as a fresh subprocess per run, with the BLAS
thread pools pinned to one thread in the environment.  Modes:

* ``--mode setup``   — build inputs and run the warm-up pass, report ``setup_s``;
* ``--mode measure`` — then repeat timed passes for ``--seconds`` (tracing off);
* ``--mode trace``   — then the per-layer run: untraced passes, passes with
  telemetry disabled, traced passes, and the workload's direct probes.

Both read the exact work counters over timed pass 0.  Per-layer times are
host time; the end-to-end ``cal_*`` metrics and the two overhead percentages
are at reference speed (see ``harness.SpeedMeter``).
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Replace the script directory so ``bench`` is imported as a package and its
# module names (``trace``) cannot shadow the standard library.
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from bench import harness  # noqa: E402
from bench.workloads import WARMUP, WORKLOADS, Workload, load, median_time  # noqa: E402

#: Traced passes per traced run.
TRACED_PASSES = 2


def timed_passes(
    workload: Workload, meters: list, first_index: int, *,
    seconds: float = 0.0, count: int = 1, span=harness.no_span,
) -> list[harness.PassResult]:
    """Whole passes: at least ``count``, and until ``seconds`` have gone by."""
    passes: list[harness.PassResult] = []
    began = time.perf_counter()
    while len(passes) < count or time.perf_counter() - began < seconds:
        ops = workload.build_pass(first_index + len(passes))
        passes.append(harness.run_pass(ops, meters, span))
    return passes


def first_pass(workload: Workload, meters: list) -> tuple[harness.PassResult, dict]:
    """Timed pass 0 alone, and the exact counters: its work-counter deltas."""
    before = workload.counters()
    (first,) = timed_passes(workload, meters, 0)
    after = workload.counters()
    exact = {k: after[k] - before[k] for k in after}
    exact.update(workload.pass0_values())
    return first, exact


def fail_kinds(passes: list[harness.PassResult], kinds: tuple[str, ...]) -> None:
    """A failed check fails every op of the kinds it covers."""
    for p in passes:
        kept = [lat for lat in p.latencies if lat[0] not in kinds]
        p.failed += len(p.latencies) - len(kept)
        p.latencies = kept


def conclude(workload: Workload, passes: list[harness.PassResult]) -> dict:
    """Run the end-of-run checks and tally attempted / failed ops."""
    workload.finish(passes)
    for name, (ok, kinds) in workload.checks.items():
        if not ok:
            harness.logger.error("check %r failed", name)
            fail_kinds(passes, kinds)
    failed = sum(p.failed for p in passes)
    return {
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "correct": failed == 0 and all(ok for ok, _ in workload.checks.values()),
        "checks": {name: ok for name, (ok, _) in workload.checks.items()},
        "passes": len(passes),
    }


def measure(workload: Workload, meters: list, seconds: float) -> dict:
    began = time.perf_counter()
    first, exact = first_pass(workload, meters)
    passes = [first] + timed_passes(
        workload, meters, 1, count=0, seconds=seconds - (time.perf_counter() - began)
    )
    out = conclude(workload, passes)
    out["metrics"] = harness.end_to_end_metrics(passes)
    out["metrics"]["peak_rss_mb"] = harness.peak_rss_mib()
    out["exact"] = exact
    return out


def trace(workload: Workload, meters: list, seconds: float, out_dir: Path) -> dict:
    from bench.trace import Tracer
    from repro import telemetry

    began = time.perf_counter()
    first, exact = first_pass(workload, meters)
    untraced = [first] + timed_passes(
        workload, meters, 1, seconds=seconds / 3.0 - (time.perf_counter() - began)
    )
    index = len(untraced)
    with telemetry.disabled():
        quiet = timed_passes(workload, meters, index, seconds=seconds / 6.0)
    index += len(quiet)
    tracer = Tracer(workload.name)
    with tracer.installed():
        traced = timed_passes(
            workload, meters, index, count=TRACED_PASSES, span=tracer.root
        )
    out = conclude(workload, untraced + quiet + traced)
    metrics = dict(exact)
    metrics.update(workload.layer_metrics(untraced))
    metrics.update(workload.probes())

    # The two overheads compare passes run seconds apart, so at reference speed.
    wall_on = statistics.median(p.wall_s / p.speed for p in untraced)
    wall_traced = statistics.median(p.wall_s / p.speed for p in traced)
    wall_quiet = statistics.median(p.wall_s / p.speed for p in quiet)
    metrics["telemetry.overhead_pct"] = 100.0 * (wall_on / wall_quiet - 1.0)
    # A private recorder, so the probe does not disturb the process-wide ring.
    recorder = telemetry.FlightRecorder()
    metrics["telemetry.counter_delta_us"] = 1e6 * median_time(
        lambda: recorder.record_counter_deltas(telemetry.metrics), 15
    )
    metrics["telemetry.registry_children"] = len(telemetry.metrics.scalar_children())
    metrics["bench.trace_overhead_pct"] = 100.0 * (wall_traced / wall_on - 1.0)
    traced_ops = sum(p.attempted for p in traced)
    for layer, self_s in tracer.self_seconds().items():
        metrics[f"{layer}.self_ms_per_op"] = 1e3 * self_s / traced_ops
    tracer.write(out_dir / f"trace_{workload.name}.json")
    out["metrics"] = metrics
    out["exact"] = exact
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--out-dir", type=Path, default=ROOT / "bench" / "out")
    args = parser.parse_args(argv)
    # Only the benchmark's own records: ``repro`` logs every injected fault
    # at WARNING, and formatting those would be timed with the ops.
    harness.logger.addHandler(logging.StreamHandler(sys.stderr))

    args.out_dir.mkdir(parents=True, exist_ok=True)
    workload = load(args.workload)(args.seed, args.out_dir)
    meters = [harness.SpeedMeter() for _ in range(workload.clients)]
    speeds = [meters[0].sample()]  # this thread runs the set-up alone
    try:
        workload.setup()
        speeds.append(meters[0].sample())
        warm = harness.run_pass(workload.build_pass(WARMUP), meters)
        speeds.append(warm.speed)
        setup_host_s = time.time() - args.t0
        # ``setup_s`` is bounded in BENCHMARK.json, so at reference speed.
        result: dict = {
            "setup_s": setup_host_s / statistics.median(speeds),
            "setup_host_s": setup_host_s,
        }
        workload.checks["warmup_pass_clean"] = (warm.failed == 0, ())
        if args.mode == "measure":
            result.update(measure(workload, meters, args.seconds))
        elif args.mode == "trace":
            result.update(trace(workload, meters, args.seconds, args.out_dir))
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
