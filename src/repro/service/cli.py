"""``repro-service``: submit jobs, run sweeps, load-test the service.

Usage::

    repro-service submit --kind steptime --params '{"chips": 256}'
    repro-service submit --kind chaos --params '{"steps": 50}' --deadline 5
    repro-service sweep --jobs jobs.json --journal sweep.jsonl
    repro-service load

``submit`` runs one job through an in-process service and prints the
JSON payload; ``sweep`` runs a job file (a JSON list of
``{"kind": ..., "params": ..., "name": ...}``) against a journal —
rerunning after a kill resumes with zero recomputation; ``load`` prints
the ok-rate/latency table of :mod:`repro.experiments.service_load`.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.service.service import ServiceConfig, SimulationService
from repro.service.spec import ServiceError, SimJob


def _service_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--concurrency", type=int, default=4, help="worker pool size"
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, help="bounded queue depth"
    )
    parser.add_argument(
        "--cache", type=int, default=256,
        help="result cache entries (0 disables)",
    )
    parser.add_argument(
        "--crash-rate", type=float, default=0.0,
        help="injected per-attempt worker crash probability",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="crash/retry plan seed"
    )


def _config(args: argparse.Namespace) -> ServiceConfig:
    return ServiceConfig(
        concurrency=args.concurrency,
        queue_depth=args.queue_depth,
        cache_entries=args.cache,
        crash_rate=args.crash_rate,
        seed=args.seed,
    )


def cmd_submit(args: argparse.Namespace) -> int:
    try:
        params = json.loads(args.params)
    except json.JSONDecodeError as exc:
        print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
        return 2
    try:
        job = SimJob(
            args.kind, params, name=args.name, deadline_s=args.deadline
        )
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with SimulationService(_config(args)) as svc:
        try:
            handle = svc.submit(job)
            payload = handle.result(timeout=args.timeout)
        except ServiceError as exc:
            reason = getattr(exc, "reason", "failed")
            print(f"rejected ({reason}): {exc}", file=sys.stderr)
            return 1
        print(json.dumps(payload, indent=2, sort_keys=True))
        if args.stats:
            print(json.dumps(svc.snapshot(), indent=2, sort_keys=True),
                  file=sys.stderr)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.service.sweep import SweepInterrupted, run_sweep

    try:
        with open(args.jobs, encoding="utf-8") as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read job file {args.jobs!r}: {exc}",
              file=sys.stderr)
        return 2
    if not isinstance(raw, list) or not raw:
        print("error: job file must be a non-empty JSON list", file=sys.stderr)
        return 2
    try:
        jobs = [
            SimJob(
                entry["kind"], entry.get("params", {}),
                name=entry.get("name", ""),
            )
            for entry in raw
        ]
    except (KeyError, TypeError, ValueError) as exc:
        print(f"error: bad job entry: {exc}", file=sys.stderr)
        return 2
    with SimulationService(_config(args)) as svc:
        try:
            result = run_sweep(
                svc, jobs, args.journal,
                interrupt_after=args.interrupt_after,
            )
        except SweepInterrupted as exc:
            print(f"{exc}; journal {args.journal} holds the completed prefix")
            return 3
        except ServiceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(
        f"sweep complete: {result.executed} executed, "
        f"{result.reused} reused from journal ({args.journal})"
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(result.payloads, fh, indent=2, sort_keys=True)
        print(f"payloads written to {args.out}")
    return 0


def cmd_load(args: argparse.Namespace) -> int:
    from repro.experiments import service_load

    print(service_load.run().format())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-service",
        description="Simulation-as-a-service: submit what-if jobs, run "
        "resumable sweeps, load-test the shedding behavior.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_submit = sub.add_parser("submit", help="run one job, print the payload")
    p_submit.add_argument(
        "--kind", required=True, help="job class (steptime, chaos, cluster)"
    )
    p_submit.add_argument(
        "--params", default="{}", help="job parameters as a JSON object"
    )
    p_submit.add_argument("--name", default="", help="client-facing job name")
    p_submit.add_argument(
        "--deadline", type=float, default=None,
        help="deadline in seconds from submission",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=300.0, help="client wait timeout"
    )
    p_submit.add_argument(
        "--stats", action="store_true", help="print service stats to stderr"
    )
    _service_args(p_submit)
    p_submit.set_defaults(fn=cmd_submit)

    p_sweep = sub.add_parser(
        "sweep", help="run a job file against a resumable journal"
    )
    p_sweep.add_argument("--jobs", required=True, help="JSON list of jobs")
    p_sweep.add_argument(
        "--journal", required=True, help="JSON-lines journal path"
    )
    p_sweep.add_argument(
        "--out", default=None, help="write the ordered payloads here as JSON"
    )
    p_sweep.add_argument(
        "--interrupt-after", type=int, default=None,
        help="simulate a kill after N fresh executions (exit 3)",
    )
    _service_args(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_load = sub.add_parser(
        "load", help="print the ok-rate / median-latency load table"
    )
    p_load.set_defaults(fn=cmd_load)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
