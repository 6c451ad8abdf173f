"""HEADLINE — the abstract's claim: "multithreading support can improve the
total throughput of a CGRA by over 30%, 75%, and 150% on 4x4, 6x6, and 8x8
CGRAs, respectively, compared to single-threaded methods".

The paper's numbers are best-configuration improvements; we require the
same thresholds from the best (page size, need, thread count) cell per
array size.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.bench.fig8 import page_sizes_for
from repro.bench.fig9 import HEADLINE_CLAIMS, best_improvement, run_fig9


@pytest.mark.parametrize("size", list(HEADLINE_CLAIMS))
def test_headline_threshold(store, size):
    best = max(
        best_improvement(run_fig9(size, ps, store=store, repeats=2))
        for ps in page_sizes_for(size)
    )
    emit(
        f"{size}x{size}: best improvement {best * 100:.1f}% "
        f"(paper claims > {HEADLINE_CLAIMS[size] * 100:.0f}%)"
    )
    assert best > HEADLINE_CLAIMS[size]
