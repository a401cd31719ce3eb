#!/usr/bin/env python3
"""The repo benchmark: one command, five workloads, named metrics with units.

    python3 bench/run.py                        # all workloads, 3 runs each, tracing off
    python3 bench/run.py --workload train_step --seed 3 --seconds 12 --runs 1
    python3 bench/run.py --trace 1              # per-layer metrics + traces
    python3 bench/run.py --out A.json           # a result set for compare.py

Every run of every workload is a fresh subprocess (``worker.py``), one after
another, never in parallel, with the BLAS pools pinned to one thread.  After
each workload the metrics are printed by name with their unit, followed by
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` holding the
metrics ``BENCHMARK.json`` names; with a single ``--workload`` that line is
the last line of the output.  A workload reports 0 for a per-layer metric of
a layer it does not exercise.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: The issue's time metrics, in host time.  Printed and compared beside the
#: twins at reference speed that ``BENCHMARK.json`` bounds (``cal_*`` and
#: ``setup_s``): host time spreads more between runs on this sandbox than a
#: bound may be wide.
HOST_TIME = [
    {"name": "ops_per_s", "unit": "op/s", "better": "higher"},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower"},
    {"name": "op_p90_ms", "unit": "ms", "better": "lower"},
    {"name": "cpu_ms_per_op", "unit": "ms", "better": "lower"},
    {"name": "setup_host_s", "unit": "s", "better": "lower"},
]

#: Set-ups timed per untraced run (the measuring process plus set-up-only
#: ones); ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: The driver allows a run 180 s; a worker that hangs must fail before that.
WORKER_TIMEOUT_S = 150.0


def start_worker(
    workload: str, seed: int, seconds: float, mode: str, out_dir: Path = OUT_DIR
) -> dict:
    """Run one worker to completion and return the JSON object it printed."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    command = [
        sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode, "--t0", repr(time.time()),
        "--out-dir", str(out_dir),
    ]
    done = subprocess.run(
        command, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload!r} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_untraced(workload: str, seed: int, seconds: float) -> dict:
    result = start_worker(workload, seed, seconds, "measure")
    setups = [result] + [
        start_worker(workload, seed, seconds, "setup") for _ in range(SETUP_SAMPLES - 1)
    ]
    for name in ("setup_s", "setup_host_s"):
        result["metrics"][name] = statistics.median(s[name] for s in setups)
    return result


def summarize(values: list[float]) -> dict:
    """Median and quartiles of one metric over the runs of a set."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def merge(runs: list[dict], specs: list[dict]) -> dict:
    """One workload's runs -> counts plus ``{metric: summary}`` in spec order."""
    named = {s["name"] for s in specs}
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": attempted,
        "failed": failed,
        # Not in BENCHMARK.json: a metric with a relative bound may never be 0.
        "error_rate": failed / attempted,
        "checks": {k: all(r["checks"][k] for r in runs) for k in runs[0]["checks"]},
        "absent": sorted(named - set().union(*(r["metrics"] for r in runs))),
        # Counts that must repeat bit-for-bit for a seed, one value per run.
        "exact": {k: [r["exact"][k] for r in runs] for k in runs[0]["exact"]},
        "metrics": {
            spec["name"]: {
                "unit": spec["unit"],
                **summarize([float(r["metrics"].get(spec["name"], 0.0)) for r in runs]),
            }
            for spec in specs
        },
    }


def report(workload: str, part: dict, specs: list[dict]) -> None:
    """Print every metric by name with its unit, then the one-line JSON of
    the metrics ``specs`` names."""
    better = {m["name"]: m["better"] for m in specs + HOST_TIME}
    verdict = "correct" if part["correct"] else "INCORRECT"
    print(f"{workload}: {verdict}, {part['attempted']} ops attempted, "
          f"{part['failed']} failed")
    print(f"  {'error_rate':40s} {part['error_rate']:>14.6g} {'fraction':8s} "
          "(lower is better)")
    for name, m in part["metrics"].items():
        if name in part["absent"]:
            continue
        spread = f"  [q1 {m['q1']:.6g}, q3 {m['q3']:.6g}]" if len(m["runs"]) > 1 else ""
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:8s} "
              f"({better[name]} is better){spread}")
    if part["absent"]:
        print(f"  ({len(part['absent'])} metrics of layers this workload does not "
              "exercise read 0)")
    print(json.dumps({
        "correct": part["correct"],
        "attempted": part["attempted"],
        "failed": part["failed"],
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in part["metrics"].items()
            if name in {spec["name"] for spec in specs}
        },
    }), flush=True)


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", choices=("0", "1"), default="0",
                        help="0: end-to-end metrics (what compare.py reads); "
                             "1: per-layer metrics and trace files, one run")
    parser.add_argument("--runs", type=int, default=3,
                        help="untraced runs per workload; medians and quartiles "
                             "are reported")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: src/repro not found; nothing to measure", file=sys.stderr)
        return 2

    document = {
        "seed": args.seed, "seconds": args.seconds, "runs": args.runs, "workloads": {},
    }
    for workload in args.workload or names:
        entry = document["workloads"][workload] = {}
        if args.trace == "0":
            runs = [
                run_untraced(workload, args.seed, args.seconds)
                for _ in range(args.runs)
            ]
            entry["end_to_end"] = merge(runs, spec["end_to_end"] + HOST_TIME)
            report(workload, entry["end_to_end"], spec["end_to_end"])
        else:
            traced = start_worker(workload, args.seed, args.seconds, "trace")
            entry["per_layer"] = merge([traced], spec["per_layer"])
            report(workload, entry["per_layer"], spec["per_layer"])
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(document, indent=1))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
