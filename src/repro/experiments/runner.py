"""CLI: regenerate any table or figure of the paper.

Usage::

    python -m repro.experiments table1
    python -m repro.experiments figure6
    python -m repro.experiments ablations
    python -m repro.experiments all
    python -m repro.experiments fidelity   # rewrite FIDELITY.json + EXPERIMENTS.md
    repro-experiments --list
"""

from __future__ import annotations

import argparse
import importlib
import sys

from repro.experiments import fidelity


def _entry(name: str):
    """``repro.experiments.<name>.run``, imported on the first call.

    A process that names one experiment loads that module's layers and no
    other's (``--list`` loads none); later calls go straight to ``run``.
    """
    run = None

    def call(*args, **kwargs):
        nonlocal run
        if run is None:
            run = importlib.import_module(f"repro.experiments.{name}").run
        return run(*args, **kwargs)

    return call


EXPERIMENTS = {
    name: _entry(name)
    for name in (
        "table1", "table2", "figure5", "figure6", "figure7", "figure8", "figure9",
        "figure10", "figure11", "ablations", "overlap", "sensitivity", "availability",
        "cluster", "service_load", "spmd_search",
    )
}


def _print_result(result, csv_dir: str | None = None, name: str = "") -> None:
    items = result if isinstance(result, list) else [result]
    for i, item in enumerate(items):
        print(item.format())
        print()
        if csv_dir is not None:
            import os

            os.makedirs(csv_dir, exist_ok=True)
            suffix = f"_{i}" if len(items) > 1 else ""
            path = os.path.join(csv_dir, f"{name}{suffix}.csv")
            with open(path, "w") as fh:
                fh.write(item.to_csv())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the TPU multipod paper.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        default="all",
        help="experiment id (table1, table2, figure5..figure11, ablations, all), or "
        "fidelity: rewrite FIDELITY.json and the generated blocks of EXPERIMENTS.md",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each table/figure as CSV into DIR",
    )
    args = parser.parse_args(argv)
    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.experiment == "fidelity":
        return fidelity.write()
    if args.experiment == "all":
        for name, fn in EXPERIMENTS.items():
            _print_result(fn(), csv_dir=args.csv, name=name)
        return 0
    try:
        fn = EXPERIMENTS[args.experiment]
    except KeyError:
        print(
            f"unknown experiment {args.experiment!r}; choose from "
            f"{', '.join(EXPERIMENTS)}, 'all' or 'fidelity'",
            file=sys.stderr,
        )
        return 2
    _print_result(fn(), csv_dir=args.csv, name=args.experiment)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
