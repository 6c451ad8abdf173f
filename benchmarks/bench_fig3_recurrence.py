"""FIG3 — Fig. 3: a recurrence cycle pins the II; unrolling does not help.

The paper's motivating observation: a DFG with a loop-carried cycle has a
minimum II independent of CGRA size, and unrolling k-fold multiplies RecMII
by k, leaving the *effective* II per original iteration unchanged — so a
single thread cannot raise utilization, which is the case for
multithreading (§IV).
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.arch.cgra import CGRA
from repro.compiler.ems import map_dfg
from repro.dfg.analysis import rec_mii
from repro.dfg.builder import DFGBuilder
from repro.dfg.transforms import unroll
from repro.util.tables import format_table


def fig3_dfg():
    """The two-op recurrence of Fig. 3 plus a store to observe it."""
    b = DFGBuilder("fig3")
    a_ph = b.placeholder("a")
    x = b.add(a_ph, b.load("in"), name="a_next")
    y = b.route(x, name="b")
    b.bind_carry(a_ph, y, distance=1, init=(0,))
    b.store("out", x)
    return b.build()


def test_fig3_unrolling_does_not_beat_recurrence():
    g = fig3_dfg()
    rows = []
    for factor in (1, 2, 4):
        u = unroll(g, factor)
        rmii = rec_mii(u)
        rows.append([factor, u.num_ops, rmii, f"{rmii / factor:.2f}"])
    emit(
        format_table(
            ["unroll", "ops", "RecMII", "effective II/iter"],
            rows,
            title="Fig. 3 — recurrence-limited II under unrolling",
        )
    )
    eff = [float(r[3]) for r in rows]
    assert all(e == pytest.approx(eff[0]) for e in eff)


def test_fig3_ii_independent_of_cgra_size():
    g = fig3_dfg()
    iis = {size: map_dfg(g, CGRA(size, size)).ii for size in (4, 6, 8)}
    emit(f"Fig. 3 — mapped II per CGRA size: {iis}")
    assert len(set(iis.values())) == 1, "a bigger array must not change II"
