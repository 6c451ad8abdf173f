"""FIG6/FIG7 — the PageMaster worked examples, executed for real.

Fig. 6: a kernel using 3 of 4 pages folded onto a single page — executed
cycle-accurately with mirrored intra-page mappings, outputs bit-exact, the
3x slowdown measured, and all transfers through rotating register files.

Fig. 7: the N=6 -> M=5 zigzag transformation — validated against the
§VI-C constraints, including the ring wrap.
"""

from __future__ import annotations

from conftest import emit
from repro.arch.cgra import CGRA
from repro.compiler.constraints import paged_bus_key
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.core.transform_check import check_placement
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings

TRIP = 24


def test_fig6_fold_to_one_page(store):
    """mpeg maps onto 3 pages at II=1 (exactly Fig. 6's shape)."""

    cgra = CGRA(4, 4, rf_depth=16)
    layout = PageLayout(cgra, (2, 2))
    spec = get_kernel("mpeg")
    pm = map_dfg_paged(spec.build(), cgra, layout)
    _, arrays, expected = spec.fresh(seed=6, trip=TRIP)
    mem = bind_memory(arrays)
    full = simulate(
        lower_mapping(pm.mapping, mem, TRIP),
        cgra,
        mem,
        bus_key=paged_bus_key(pm.layout),
    )
    placement = PageMaster(pm.pages_used, pm.ii, 1).place(
        batches=required_batches(pm.mapping, TRIP)
    )
    _, arrays2, _ = spec.fresh(seed=6, trip=TRIP)
    mem2 = bind_memory(arrays2)
    folded = simulate(
        retarget_firings(pm, placement, [0], mem2, TRIP),
        cgra,
        mem2,
        bus_key=paged_bus_key(pm.layout),
        rf_depth=16,
    )
    ok = all(mem2.snapshot()[k] == expected[k] for k in expected)
    emit(
        f"Fig. 6 — mpeg uses {pm.pages_used} pages at II={pm.ii}; "
        f"full run {full.cycles} cycles, folded-to-1-page run "
        f"{folded.cycles} cycles (x{folded.cycles / full.cycles:.2f}), "
        f"correct={ok}, global traffic {folded.global_writes}w "
        f"(register files only), rf depth used {folded.rf_max_depth_used}"
    )
    assert ok
    assert folded.global_writes == 0
    assert folded.cycles / full.cycles <= pm.pages_used + 0.5


def test_fig7_zigzag_n6_m5():
    p = PageMaster(6, 1, 5).place()
    check_placement(p, require_wrap=True)
    emit(
        f"Fig. 7 — N=6 -> M=5: II_q={float(p.ii_q_effective()):.3f} "
        f"(bound {float(p.ii_q_bound()):.3f}), batch-0 columns "
        f"{[p.col(n, 0) for n in range(6)]}"
    )
    assert p.col(0, 0) == 0  # the scheduling line starts at column 0
    assert float(p.ii_q_effective()) < 6  # strictly better than 1 page
