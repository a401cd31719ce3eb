#!/usr/bin/env python3
"""Compare two result files of ``run.py --runs R --out FILE`` (same seed).

    python3 bench/compare.py A.json B.json

A is the base.  One row per workload x end-to-end metric: both medians with
their quartiles, the ratio B/A, and a verdict against the metric's bound in
``BENCHMARK.json``:

* ``unresolved`` — the spread between a side's own runs (distance between
  its quartiles over its median) exceeds the bound, so the runs cannot tell;
* ``worse``      — B's median is worse than A's by more than the bound;
* ``ok``         — otherwise.

``error_rate`` has the bound 0: any rise is ``worse``.  The host-time rows
carry no verdict, because the machine's speed differs between two sets.
Then every exact counter (a count that must repeat bit-for-bit for a seed) is
compared across all runs of both sides.  Exits non-zero on any ``worse`` row
or differing exact counter.  Run it on two result sets of the same code for
the A/A check.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(metric: dict) -> float:
    """Distance between the quartiles as a share of the median."""
    return (metric["q3"] - metric["q1"]) / abs(metric["value"]) if metric["value"] else 0.0


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    if not a["value"]:
        return "ok"
    change = b["value"] / a["value"] - 1.0
    worsening = -change if better == "higher" else change
    return "worse" if worsening > bound else "ok"


def row(workload: str, name: str, ma: dict, mb: dict, note: str) -> str:
    ratio = mb["value"] / ma["value"] if ma["value"] else float("nan")
    return (
        f"{workload:17s}{name:18s}"
        f"{ma['value']:12.5g} [{ma['q1']:8.5g}, {ma['q3']:8.5g}]"
        f"{mb['value']:12.5g} [{mb['q1']:8.5g}, {mb['q3']:8.5g}]"
        f"{ratio:8.3f}  {note}"
    )


def compare(a: dict, b: dict, spec: dict) -> tuple[list[str], int]:
    """Report lines and the number of findings that fail the comparison."""
    lines = [
        f"{'workload':17s}{'metric':18s}{'A median [q1, q3]':>34s}"
        f"{'B median [q1, q3]':>34s}{'B/A':>8s}  verdict"
    ]
    bounded = {m["name"] for m in spec["end_to_end"]}
    bad = 0
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a or "end_to_end" not in entry_b:
            lines.append(f"{workload}: no untraced runs on both sides")
            bad += 1
            continue
        e2e_a, e2e_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for m in spec["end_to_end"]:
            ma, mb = e2e_a["metrics"][m["name"]], e2e_b["metrics"][m["name"]]
            v = verdict(ma, mb, m["better"], m["bound"])
            bad += v == "worse"
            note = f"{v} (bound {m['bound']:.0%}, {m['better']} is better)"
            lines.append(row(workload, m["name"], ma, mb, note))
        for name, ma in e2e_a["metrics"].items():
            if name not in bounded:
                lines.append(
                    row(workload, name, ma, e2e_b["metrics"][name], "host time, no verdict")
                )
        # A failed op has no latency and may have ended early, so a rise in
        # failures can read as a speed-up in the rows above.
        risen = e2e_b["error_rate"] > e2e_a["error_rate"]
        bad += risen
        lines.append(
            f"{workload:17s}{'error_rate':18s}"
            f"{e2e_a['failed']:>12d} of {e2e_a['attempted']:<18d}"
            f"{e2e_b['failed']:>12d} of {e2e_b['attempted']:<18d}"
            f"{'':8s}  {'worse' if risen else 'ok'} (bound 0, lower is better)"
        )
        for name, values in e2e_a["exact"].items():
            seen = set(values) | set(e2e_b["exact"].get(name, [None]))
            if len(seen) > 1:
                lines.append(f"{workload}: exact counter {name} differs: {sorted(seen, key=repr)}")
                bad += 1
    return lines, bad


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, bad = compare(a, b, spec)
    print("\n".join(lines))
    print(f"{bad} finding(s) fail the comparison" if bad else "no regression, exact counters equal")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
