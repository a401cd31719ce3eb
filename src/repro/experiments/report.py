"""Plain-text tables and figures for experiment output."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field


def _csv(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


@dataclass
class Table:
    """A titled table of rows, printable as aligned plain text."""

    title: str
    headers: list[str]
    rows: list[tuple] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(tuple(values))

    def column(self, header: str) -> list:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]

    def format(self) -> str:
        cells = [self.headers] + [[_fmt(v) for v in row] for row in self.rows]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.headers))]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)))
        for row in cells[1:]:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def to_csv(self) -> str:
        """The table as CSV (header row first)."""
        return _csv([self.headers, *self.rows])


@dataclass
class Figure:
    """Series data for a figure, printable as a column listing."""

    title: str
    x_label: str
    series: dict[str, tuple[list, list]] = field(default_factory=dict)

    def add_series(self, name: str, xs: list, ys: list) -> None:
        if len(xs) != len(ys):
            raise ValueError("series xs and ys must be equal length")
        self.series[name] = (list(xs), list(ys))

    def format(self) -> str:
        lines = [self.title, "-" * len(self.title)]
        for name, (xs, ys) in self.series.items():
            lines.append(f"[{name}]")
            for x, y in zip(xs, ys):
                lines.append(f"  {self.x_label}={_fmt(x):>8}  {_fmt(y)}")
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Long-format CSV: series,x,y."""
        return _csv([["series", self.x_label, "value"]] + [
            [name, x, y] for name, (xs, ys) in self.series.items() for x, y in zip(xs, ys)
        ])
