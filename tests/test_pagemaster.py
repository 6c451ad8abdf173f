"""Tests for the PageMaster transformation (§VI-D, Algorithm 1).

These validate the paper's formal output constraints (§VI-C) from first
principles via :func:`repro.core.transform_check.check_placement`, plus the
steady-state II properties: grouped folds hit the resource bound exactly,
the zigzag satisfies the full ring including the wrap, and shrinking to one
page degenerates to pure sequencing.

Run as a script (``python tests/test_pagemaster.py``) it sweeps the fold
envelope over every N <= 16 instead of the N <= 8 that tier-1 covers.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pagemaster import PageMaster, steady_state_ii
from repro.core.transform_check import check_placement
from repro.util.errors import ConstraintViolation, TransformError


class TestValidation:
    def test_bad_parameters(self):
        with pytest.raises(TransformError):
            PageMaster(0, 1, 1)
        with pytest.raises(TransformError):
            PageMaster(4, 0, 1)
        with pytest.raises(TransformError):
            PageMaster(4, 1, 5)  # M > N
        with pytest.raises(TransformError):
            PageMaster(4, 1, 0)

    @pytest.mark.parametrize("n,strategy", [(3, "zigzag"), (4, "grouped")])
    def test_place_honours_batches(self, n, strategy):
        """``batches=0`` places nothing and a negative count is refused,
        on both strategies."""
        pm = PageMaster(n, 1, 2)
        assert pm.place(batches=1).strategy == strategy
        with pytest.raises(TransformError, match="batches must be >= 0"):
            pm.place(batches=-3)
        p = pm.place(batches=0)
        assert (p.batches, p.slots, p.makespan) == (0, {}, 0)
        check_placement(p)

    def test_checker_catches_slot_collision(self):
        p = PageMaster(2, 1, 1).place(batches=3)
        (col, t) = p.slots[(0, 0)]
        p.slots[(1, 0)] = (col, t)  # corrupt: duplicate slot
        with pytest.raises(ConstraintViolation):
            check_placement(p)

    def test_checker_catches_time_violation(self):
        p = PageMaster(2, 1, 1).place(batches=3)
        c0, t0 = p.slots[(0, 1)]
        p.slots[(0, 1)] = (c0, 0)  # not after its batch-0 dependency
        with pytest.raises(ConstraintViolation):
            check_placement(p)

    def test_checker_catches_column_violation(self):
        p = PageMaster(6, 1, 3, wrap_used=True).place(batches=4)
        n, b = 2, 2
        _, t = p.slots[(n, b)]
        # move to a free far-away slot: keep time legal, break the column
        p.slots[(n, b)] = (0 if p.slots[(n, b)][0] == 2 else 2, t + 50)
        with pytest.raises(ConstraintViolation):
            check_placement(p)


class TestGroupedFold:
    @pytest.mark.parametrize("n,m", [(4, 1), (4, 2), (4, 4), (8, 2), (6, 3), (9, 3)])
    def test_hits_resource_bound_exactly(self, n, m):
        for ii in (1, 3):
            p = PageMaster(n, ii, m).place()
            assert p.strategy == "grouped"
            check_placement(p)
            assert p.ii_q_effective() == p.ii_q_bound() == Fraction(n * ii, m)

    def test_m_equals_n_is_identity_rate(self):
        p = PageMaster(5, 3, 5).place()
        assert p.ii_q_effective() == 3

    def test_single_page_is_pure_sequencing(self):
        """Fig. 6: all pages onto one page, one instance per cycle."""
        p = PageMaster(4, 2, 1).place(batches=6)
        check_placement(p)
        times = sorted(t for (_, t) in p.slots.values())
        assert times == list(range(len(p.slots)))  # dense, no holes

    def test_every_slot_filled(self):
        p = PageMaster(6, 2, 2).place(batches=8)
        used = {(c, t) for (c, t) in p.slots.values()}
        assert len(used) == len(p.slots)
        # dense prefix in each column
        for col in range(2):
            col_times = sorted(t for (c, t) in used if c == col)
            assert col_times == list(range(len(col_times)))

    def test_wrap_used_forces_zigzag(self):
        p = PageMaster(4, 1, 2, wrap_used=True).place()
        assert p.strategy == "zigzag"


class TestZigzag:
    @pytest.mark.parametrize(
        "n,m", [(4, 3), (5, 2), (5, 3), (5, 4), (6, 5), (7, 3), (9, 4), (16, 5)]
    )
    def test_constraints_hold(self, n, m):
        p = PageMaster(n, 2, m).place()
        assert p.strategy == "zigzag"
        check_placement(p)

    @pytest.mark.parametrize("n,m", [(4, 4), (6, 6), (8, 4), (6, 2)])
    def test_forced_zigzag_satisfies_full_ring(self, n, m):
        p = PageMaster(n, 1, m, wrap_used=True).place()
        check_placement(p, require_wrap=True)

    def test_periodicity_detected(self):
        p = PageMaster(6, 2, 5).place()
        assert p.period_batches is not None and p.period_batches > 0
        assert p.period_rows is not None and p.period_rows > 0

    def test_effective_ii_at_least_bound(self):
        for n, m in [(5, 2), (7, 4), (9, 5)]:
            p = PageMaster(n, 2, m).place()
            assert p.ii_q_effective() >= p.ii_q_bound()

    def test_fig7_case_n6_m5(self):
        """The paper's worked example: 6 pages onto 5 columns."""
        p = PageMaster(6, 1, 5).place()
        check_placement(p, require_wrap=True)
        # batch 0 follows the zigzag scheduling line: page 0 at column 0,
        # ring neighbours fanning outward
        assert p.col(0, 0) == 0
        assert p.col(5, 0) == 1
        assert p.col(1, 0) == 2
        # the leftover page is a tail in a boundary column
        assert p.col(3, 0) in (0, 4)

    def test_no_irregular_placements_in_standard_configs(self):
        for n, m in [(4, 3), (6, 5), (8, 5), (8, 7), (16, 9)]:
            p = PageMaster(n, 1, m).place()
            assert p.irregular == 0, (n, m)


class TestSteadyStateII:
    def test_exact_for_divisible(self):
        assert steady_state_ii(8, 3, 4) == Fraction(6)

    def test_monotone_in_m(self):
        vals = [steady_state_ii(6, 2, m) for m in range(1, 7)]
        assert all(vals[i] >= vals[i + 1] for i in range(len(vals) - 1))

    @given(
        n=st.integers(1, 12),
        ii=st.integers(1, 4),
        m_frac=st.floats(0.01, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_bound_and_validity(self, n, ii, m_frac):
        m = max(1, min(n, round(m_frac * n)))
        pm = PageMaster(n, ii, m)
        p = pm.place()
        check_placement(p)
        assert p.ii_q_effective() >= p.ii_q_bound()
        if n % m == 0:
            assert p.ii_q_effective() == p.ii_q_bound()

    @given(n=st.integers(2, 10), ii=st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_property_zigzag_always_valid(self, n, ii):
        for m in range(1, n + 1):
            p = PageMaster(n, ii, m, wrap_used=True).place()
            check_placement(p, require_wrap=True)


def fold_envelope(max_pages: int) -> tuple[int, Fraction, list[str]]:
    """Every fold of ``N <= max_pages`` pages onto ``M <= N`` columns, with
    and without ``wrap_used``, at ``II_p`` 1 and 3: ``check_placement``
    passes, ``II_p*N/M <= II_q <= 2*II_p*N/M``, with equality when M
    divides N on a wrap-free schedule.  Returns the (N, M, wrap) cell
    count, the worst ``II_q`` over its resource bound, and the problems."""
    cells, worst, problems = 0, Fraction(0), []
    for n in range(1, max_pages + 1):
        for m in range(1, n + 1):
            for wrap in (False, True):
                cells += 1
                for ii_p in (1, 3):
                    p = PageMaster(n, ii_p, m, wrap_used=wrap).place()
                    cell = f"N={n} M={m} II_p={ii_p} wrap_used={wrap}"
                    try:
                        check_placement(p)
                    except ConstraintViolation as exc:
                        problems.append(f"{cell}: {exc}")
                    bound, ii_q = Fraction(ii_p * n, m), p.ii_q_effective()
                    worst = max(worst, ii_q / bound)
                    if not bound <= ii_q <= 2 * bound:
                        problems.append(f"{cell}: II_q {ii_q} outside the envelope")
                    elif n % m == 0 and not wrap and ii_q != bound:
                        problems.append(f"{cell}: grouped II_q {ii_q} != {bound}")
    return cells, worst, problems


def test_every_fold_the_store_can_hold_meets_the_envelope():
    """The committed store holds N <= 8 (no ``wrap_used``): every fold it
    can ask for, on both strategies, is legal and inside the paper's
    envelope, whatever a stored table says (the script sweeps N <= 16)."""
    cells, worst, problems = fold_envelope(8)
    assert problems == []
    assert cells == 72 and worst <= 2


if __name__ == "__main__":
    cells, worst, problems = fold_envelope(16)
    print(*problems, sep="\n")
    print(f"{cells} (N, M, wrap_used) cells at II_p 1 and 3, N <= 16: "
          f"{len(problems)} problem(s); worst II_q / (II_p*N/M) = {worst}")
    sys.exit(1 if problems else 0)
