"""Plain-text table and bar-chart rendering for experiment output.

Every experiment returns a :class:`Table`; the benchmark harness prints
it so a run's stdout reads like the paper's evaluation section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

Cell = Union[str, int, float]


@dataclass
class Table:
    """A titled table with typed cells and alignment-aware rendering."""

    title: str
    headers: List[str]
    rows: List[List[Cell]] = field(default_factory=list)
    note: str = ""

    def add_row(self, *cells: Cell) -> None:
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(cells))

    @staticmethod
    def _fmt(cell: Cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.2f}"
        return str(cell)

    def render(self) -> str:
        cells = [[self._fmt(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [f"== {self.title} =="]
        header = " | ".join(h.ljust(w) for h, w in zip(self.headers, widths))
        lines.append(header)
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(
                " | ".join(
                    c.rjust(w) if _numericish(c) else c.ljust(w)
                    for c, w in zip(row, widths)
                )
            )
        if self.note:
            lines.append(f"({self.note})")
        return "\n".join(lines)

    def column(self, header: str) -> List[Cell]:
        idx = self.headers.index(header)
        return [row[idx] for row in self.rows]


def _numericish(text: str) -> bool:
    stripped = text.replace("-", "").replace(".", "").replace("%", "")
    stripped = stripped.replace("x", "").replace(",", "")
    return bool(stripped) and stripped.isdigit()


def bar_chart(
    title: str,
    labels: Sequence[str],
    values: Sequence[float],
    *,
    unit: str = "%",
    width: int = 50,
    reference: Optional[float] = None,
) -> str:
    """Render a horizontal ASCII bar chart (the 'figure' renderer)."""
    if len(labels) != len(values):
        raise ValueError("labels and values must have the same length")
    peak = max(list(values) + ([reference] if reference else [])) or 1.0
    label_w = max((len(l) for l in labels), default=0)
    lines = [f"== {title} =="]
    for label, value in zip(labels, values):
        bar = "#" * max(1, int(round(width * value / peak))) if value > 0 else ""
        lines.append(f"{label.ljust(label_w)} | {bar} {value:.2f}{unit}")
    if reference is not None:
        lines.append(f"{'(reference)'.ljust(label_w)} | {reference:.2f}{unit}")
    return "\n".join(lines)
