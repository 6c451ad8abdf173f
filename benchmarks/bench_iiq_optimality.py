"""TAB-II — the §VI-C optimality claim, measured.

The paper bounds the transformed II by resource constraints and claims the
algorithm produces an optimal schedule.  This bench sweeps (N, II_p, M) and
reports achieved vs bound: grouped folds (M | N, wrap-free) are exactly
optimal; the zigzag pays a measurable but bounded premium on non-dividing
targets — and the paper's own loose bound ``II_p * floor(N/M)`` is always
met.
"""

from __future__ import annotations

from fractions import Fraction

from conftest import emit
from repro.core.pagemaster import PageMaster
from repro.core.transform_check import check_placement
from repro.util.tables import format_table


def test_iiq_vs_bound_sweep():
    rows = []
    for n in (4, 6, 8, 12, 16):
        for m in range(1, n + 1):
            p = PageMaster(n, 2, m).place()
            check_placement(p)
            rows.append(
                (
                    n,
                    m,
                    p.strategy,
                    float(p.ii_q_effective()),
                    float(p.ii_q_bound()),
                    p.ii_q_effective() / p.ii_q_bound(),
                    p.ii_q_effective() >= 2 * (n // m),  # paper bound
                )
            )
    body = [
        [n, m, strat, f"{eff:.2f}", f"{bound:.2f}", f"{float(ratio):.2f}"]
        for (n, m, strat, eff, bound, ratio, _ok) in rows
    ]
    emit(
        format_table(
            ["N", "M", "strategy", "II_q", "bound N*II/M", "ratio"],
            body,
            title="TAB-II — achieved vs optimal transformed II (II_p = 2)",
        )
    )
    for (n, m, strat, eff, bound, ratio, paper_ok) in rows:
        # the paper's floor bound always holds
        assert paper_ok, (n, m)
        if n % m == 0:
            assert ratio == 1, (n, m)  # grouped folds are exactly optimal
        else:
            # zigzag premium stays bounded; the worst case observed is a
            # near-full non-dividing shrink (N=16 -> M=14, ~1.59x)
            assert ratio < Fraction(17, 10), (n, m)
