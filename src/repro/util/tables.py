"""Plain-text table rendering for the experiment harness.

The benchmark drivers print the same rows/series the paper's figures show;
this module owns the formatting so every experiment reports uniformly.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

__all__ = ["format_table"]


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.3f}" if abs(value) < 1000 else f"{value:.1f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table.

    ``headers`` names the columns; each row must have the same arity.
    Numeric cells are right-aligned, text cells left-aligned.
    """
    str_rows = [[_cell(v) for v in row] for row in rows]
    for r in str_rows:
        if len(r) != len(headers):
            raise ValueError(
                f"row arity {len(r)} does not match header arity {len(headers)}"
            )
    widths = [len(h) for h in headers]
    for r in str_rows:
        for i, cell in enumerate(r):
            widths[i] = max(widths[i], len(cell))

    def is_numeric(col: int) -> bool:
        return all(
            _looks_numeric(r[col]) for r in str_rows
        ) and str_rows  # empty table: left-align

    aligns = [">" if str_rows and is_numeric(i) else "<" for i in range(len(headers))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(f"{h:<{w}}" for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for r in str_rows:
        lines.append(
            "  ".join(f"{c:{a}{w}}" for c, a, w in zip(r, aligns, widths))
        )
    return "\n".join(lines)


def _looks_numeric(s: str) -> bool:
    t = s.rstrip("%")
    try:
        float(t)
        return True
    except ValueError:
        return False

