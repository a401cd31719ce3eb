"""The fidelity table: every paper claim and every model-vs-twin row, once.

Each experiment module declares its :class:`Claim` rows beside ``run()``
as ``claims(result)``; :mod:`repro.telemetry.drift` emits the twin rows.
The tier-1 claim test, the drift gate (``repro-telemetry drift``) and
``python -m repro.experiments fidelity`` (:func:`write`: ``FIDELITY.json``
and the generated blocks of EXPERIMENTS.md, at a fixed precision so they
do not depend on the Python version) are views of :func:`table`.
"""

from __future__ import annotations

import importlib
import json
import operator
import re
from pathlib import Path
from typing import NamedTuple

#: Denominator floor (1 ns) of a relative error: an all-zero twin phase
#: (hidden comm without overlap) compares absolutely.
_DENOM_FLOOR = 1e-9

_COMPARE = {">": operator.gt, ">=": operator.ge, "<": operator.lt, "==": operator.eq}


class Claim(NamedTuple):
    """One row: ``reference`` is a paper value (for a shape claim, the
    paper's bound) or a DES twin's seconds (``None``: no twin, reported and
    not gated), ``measured`` what this repo's models give.  ``rule`` is
    ``"within <relative>"``, ``"near <absolute>"``, ``"drift <tolerance>"``
    (relative to the model value) or ``measured <op> reference`` for ``>``,
    ``>=``, ``<``, ``==``."""

    id: str
    reference: float | str | None
    measured: float | str
    rule: str

    @property
    def error(self) -> float | None:
        """Relative error, for the rules that are tolerances."""
        op = self.rule.split()[0]
        if self.reference is None or op not in ("within", "near", "drift"):
            return None
        base = self.measured if op == "drift" else self.reference
        return abs(self.measured - self.reference) / max(abs(base), _DENOM_FLOOR)

    @property
    def verdict(self) -> str:
        if self.reference is None:
            return "no twin"
        op, _, bound = self.rule.partition(" ")
        if op in ("within", "drift"):
            ok = self.error <= float(bound)
        elif op == "near":
            ok = abs(self.measured - self.reference) <= float(bound)
        else:
            ok = _COMPARE[op](self.measured, self.reference)
        return "pass" if ok else "FAIL"


def failures(rows) -> list[Claim]:
    """The gate: the rows whose rule does not hold."""
    return [r for r in rows if r.verdict == "FAIL"]


#: The experiment modules that declare claims, in EXPERIMENTS.md order.
_SOURCES = ("table1", "table2", "figure5", "figure6", "figure7", "figure8", "figure9",
            "figure10", "figure11", "ablations", "sensitivity", "spmd_search", "availability")


def table() -> list[Claim]:
    """Every claim: each experiment's about its ``run()``, then the twin rows."""
    from repro.telemetry.drift import drift_report

    rows: list[Claim] = []
    for name in _SOURCES:
        module = importlib.import_module(f"repro.experiments.{name}")
        rows += module.claims(module.run())
    return rows + drift_report()


def _fixed(value):
    """Six significant digits (errors: six decimals, see :func:`_record`)."""
    return float(f"{value:.6g}") if isinstance(value, float) else value


def _record(row: Claim) -> dict:
    error = None if row.error is None else round(row.error, 6)
    kind = "twin" if row.rule.startswith("drift") else "paper"
    return {"id": row.id, "kind": kind, "reference": _fixed(row.reference),
            "measured": _fixed(row.measured), "error": error, "rule": row.rule,
            "verdict": row.verdict}


def render_json(rows) -> str:
    """``FIDELITY.json``: one record per line."""
    return "[\n" + ",\n".join(json.dumps(_record(r)) for r in rows) + "\n]\n"


_BLOCK = re.compile(r"(<!-- fidelity (\S+) -->\n).*?(<!-- end fidelity -->)", re.S)


def render_markdown(rows, text: str) -> str:
    """``text`` (EXPERIMENTS.md) with each ``<!-- fidelity <source> -->``
    block holding the claims whose id starts ``<source>/``."""
    groups: dict[str, list[str]] = {}
    for row in rows:
        rec = _record(row)
        cells = [f"`{row.id}`"] + [
            "—" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)
            for v in (rec[k] for k in ("reference", "measured", "error", "rule", "verdict"))
        ]
        groups.setdefault(row.id.split("/")[0], []).append("| " + " | ".join(cells) + " |")
    head = "| claim | reference | measured | error | rule | verdict |\n|---|---|---|---|---|---|\n"
    text = _BLOCK.sub(lambda m: m[1] + head + "\n".join(groups.pop(m[2])) + "\n" + m[3], text)
    if groups:
        raise ValueError(f"EXPERIMENTS.md has no fidelity block for {sorted(groups)}")
    return text


def write() -> int:
    """``python -m repro.experiments fidelity``: rewrite ``FIDELITY.json`` and
    the blocks of ``EXPERIMENTS.md`` in the current directory; 1 if a claim fails."""
    rows = table()
    Path("FIDELITY.json").write_text(render_json(rows), encoding="utf-8")
    md = Path("EXPERIMENTS.md")
    md.write_text(render_markdown(rows, md.read_text(encoding="utf-8")), encoding="utf-8")
    bad = failures(rows)
    print(f"{len(rows)} claims, {len(bad)} failing: FIDELITY.json, EXPERIMENTS.md")
    for r in bad:
        print(f"  FAIL {r.id}: measured {r.measured!r}, reference {r.reference!r}, {r.rule}")
    return 1 if bad else 0
