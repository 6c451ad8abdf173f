"""Machine-readable experiment exports.

The figure drivers return plain dataclasses; this module serialises them to
JSON records (one per data point) so results can be plotted or diffed
outside this repository::

    rows = run_fig8(4, store=store)
    write_json(fig8_to_records(4, rows), "fig8_4x4.json")
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench.fig8 import Fig8Row
from repro.bench.fig9 import Fig9Cell

__all__ = ["fig8_to_records", "fig9_to_records", "write_json"]


def fig8_to_records(size: int, rows: list[Fig8Row]) -> list[dict]:
    """Flatten Fig. 8 rows: one record per (kernel, page size)."""
    out = []
    for r in rows:
        for ps, ratio in sorted(r.per_page_size.items()):
            out.append(
                {
                    "experiment": "fig8",
                    "cgra": f"{size}x{size}",
                    "kernel": r.kernel,
                    "page_size": ps,
                    "ii_base": r.ii_base,
                    "performance": None if ratio is None else round(ratio, 6),
                    "mappable": ratio is not None,
                }
            )
    return out


def fig9_to_records(size: int, page_size: int, cells: list[Fig9Cell]) -> list[dict]:
    """Flatten Fig. 9 cells: one record per (need, thread count)."""
    return [
        {
            "experiment": "fig9",
            "cgra": f"{size}x{size}",
            "page_size": page_size,
            "need": c.need,
            "threads": c.n_threads,
            "improvement": round(c.improvement, 6),
            "mt_makespan": c.mt_makespan,
            "base_makespan": c.base_makespan,
            "mt_utilization": round(c.mt_utilization, 6),
        }
        for c in cells
    ]


def write_json(records: list[dict], path: str | Path) -> Path:
    """Write records as a JSON array; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(records, indent=2) + "\n")
    return p

