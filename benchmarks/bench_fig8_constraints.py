"""FIG8A/B/C — Fig. 8: performance difference caused by paging constraints.

Regenerates, for each CGRA size, the per-kernel performance percentage
(II_baseline / II_paged) for every page size the paper evaluates, and
checks the paper's qualitative claims:

* with a well-chosen page size the average stays close to the baseline
  ("performance will not be degraded with proper page size selection");
* page size 4 is at least as gentle as page size 2 on the 4x4 array.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.bench.fig8 import page_sizes_for, render_fig8, run_fig8


def _average(rows, ps):
    vals = [r.per_page_size[ps] for r in rows if r.per_page_size.get(ps)]
    return sum(vals) / len(vals) if vals else 0.0


@pytest.mark.parametrize("size", [4, 6, 8])
def test_fig8(store, size):
    rows = run_fig8(size, store=store)
    emit(render_fig8(size, rows))
    sizes = page_sizes_for(size)
    best_avg = max(_average(rows, ps) for ps in sizes)
    # shape check: some page size keeps the suite within ~25% of baseline
    assert best_avg > 0.75, f"{size}x{size}: best average {best_avg:.2f}"
    # every kernel maps under the constraints for at least one page size
    for r in rows:
        assert any(v is not None for v in r.per_page_size.values()), r.kernel


def test_fig8_page4_gentler_than_page2_on_4x4(store):
    """Fig. 8(a): 'for a page size of 4, performance remains identical ...
    slight performance degradation for a page size of 2 PEs'."""
    rows = run_fig8(4, store=store)
    assert _average(rows, 4) >= _average(rows, 2) - 0.02
