"""Markdown table collection for benchmark results."""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence

_RESULTS_DIR = Path(os.environ.get("CHRONOS_RESULTS_DIR", "results"))


@dataclass
class Table:
    """One rendered experiment table."""

    title: str
    headers: Sequence[str]
    rows: List[Sequence[object]]
    notes: str = ""

    def render(self) -> str:
        def fmt(cell: object) -> str:
            if isinstance(cell, float):
                if cell == 0:
                    return "0"
                if abs(cell) >= 1000 or abs(cell) < 0.01:
                    return f"{cell:.3g}"
                return f"{cell:.3f}"
            return str(cell)

        lines = [f"### {self.title}", ""]
        lines.append("| " + " | ".join(map(str, self.headers)) + " |")
        lines.append("|" + "|".join("---" for _ in self.headers) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(c) for c in row) + " |")
        if self.notes:
            lines.append("")
            lines.append(self.notes)
        return "\n".join(lines)


_TABLES: List[Table] = []


def report_table(
    title: str,
    headers: Sequence[str],
    rows: List[Sequence[object]],
    notes: str = "",
) -> Table:
    """Register a result table; also persist it under the results dir."""
    table = Table(title=title, headers=list(headers), rows=rows, notes=notes)
    _TABLES.append(table)
    try:
        _RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        slug = re.sub(r"[^a-z0-9]+", "_", title.lower()).strip("_")
        # Benchmark report output, regenerable by rerunning the bench —
        # never a durability artifact the engine reads back.
        # chronolint: allow-atomic-write
        (_RESULTS_DIR / f"{slug}.md").write_text(table.render() + "\n")
    except OSError:
        pass  # reporting must never fail the benchmark
    return table


def all_tables() -> List[Table]:
    return list(_TABLES)


def clear_tables() -> None:
    _TABLES.clear()
