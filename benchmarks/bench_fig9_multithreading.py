"""FIG9A/B/C — Fig. 9: system performance improvement from multithreading.

Regenerates the improvement grid (CGRA need x thread count) for every CGRA
size and page size, and checks the paper's qualitative claims: improvement
grows with thread count up to the page-count bottleneck, small thread
counts can degrade (the constraint cost), and larger arrays gain more.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.bench.fig8 import page_sizes_for
from repro.bench.fig9 import best_improvement, render_fig9, run_fig9


@pytest.mark.parametrize("size", [4, 6, 8])
def test_fig9(store, size):
    page_size = 4  # the paper's headline configuration per size
    cells = run_fig9(size, page_size, store=store, repeats=2)
    emit(render_fig9(size, page_size, cells))
    assert cells, "no mappable kernels"
    # improvement at 16 threads beats improvement at 1 thread for every need
    for need in {c.need for c in cells}:
        one = next(c for c in cells if c.need == need and c.n_threads == 1)
        sixteen = next(c for c in cells if c.need == need and c.n_threads == 16)
        assert sixteen.improvement > one.improvement
    assert best_improvement(cells) > 0.2


@pytest.mark.parametrize("size,page_size", [(4, 2), (6, 2), (6, 8), (8, 2), (8, 8)])
def test_fig9_other_page_sizes(store, size, page_size):
    if page_size not in page_sizes_for(size):
        pytest.skip("configuration not evaluated by the paper")
    cells = run_fig9(size, page_size, store=store, repeats=2)
    emit(render_fig9(size, page_size, cells))
    assert cells and best_improvement(cells) > 0.0


def test_fig9_gain_grows_with_cgra_size(store):
    """Abstract: >30% / >75% / >150% on 4x4 / 6x6 / 8x8 — so the best gain
    must be ordered by array size."""
    bests = {
        size: best_improvement(run_fig9(size, 4, store=store, repeats=2))
        for size in (4, 6, 8)
    }
    emit(f"best improvements: {bests}")
    assert bests[4] < bests[6] < bests[8]
