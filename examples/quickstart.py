#!/usr/bin/env python3
"""Quickstart: compile a media kernel for a paged 4x4 CGRA, execute it
cycle-accurately, then shrink it to half the array at "runtime" with the
PageMaster transformation and show it still computes the same thing at the
predicted cost.

Run:  python examples/quickstart.py
"""

from repro.arch.presets import preset
from repro.compiler.ems import map_dfg
from repro.compiler.constraints import paged_bus_key
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings

TRIP = 32


def main() -> None:
    # --- the hardware: a 4x4 CGRA divided into four 2x2 pages (Fig. 4) ----
    cgra = preset("4x4")  # the paper's 4x4 fabric, rf_depth 16
    layout = PageLayout(cgra, (2, 2))
    print(f"hardware: {cgra.describe()}")
    print(f"paging:   {layout}\n")

    # --- the software: the mpeg motion-compensation kernel ----------------
    spec = get_kernel("mpeg")
    dfg, arrays, expected = spec.fresh(seed=42, trip=TRIP)
    print(f"kernel:   {dfg.summary()}")

    # --- baseline compilation (unconstrained, whole array) ----------------
    baseline = map_dfg(dfg, cgra)
    print(f"baseline: {baseline.summary()}")

    # --- paged compilation (§VI-B constraints) -----------------------------
    paged = map_dfg_paged(dfg, cgra, layout)
    print(f"paged:    {paged.summary()}")
    print(
        f"          II {baseline.ii} -> {paged.ii}, "
        f"uses {paged.pages_used} of {layout.num_pages} pages\n"
    )

    # --- run the paged schedule and check against the golden model --------
    mem = bind_memory(arrays)
    res = simulate(
        lower_mapping(paged.mapping, mem, TRIP),
        cgra,
        mem,
        bus_key=paged_bus_key(paged.layout),
    )
    ok = all(mem.snapshot()[k] == expected[k] for k in expected)
    print(f"full-size run: {res.summary()}  correct={ok}")

    # --- runtime shrink: give half the pages away to another thread -------
    m = max(1, paged.pages_used // 2)
    if m == paged.pages_used:
        print("kernel already fits one page; shrinking is a no-op")
        return
    batches = required_batches(paged.mapping, TRIP)
    placement = PageMaster(
        paged.pages_used, paged.ii, m, wrap_used=paged.wrap_used
    ).place(batches=batches)
    print(f"\nPageMaster: {placement.summary()}")

    _, arrays2, _ = spec.fresh(seed=42, trip=TRIP)
    mem2 = bind_memory(arrays2)
    firings = retarget_firings(paged, placement, list(range(m)), mem2, TRIP)
    res2 = simulate(
        firings, cgra, mem2, bus_key=paged_bus_key(paged.layout), rf_depth=32
    )
    ok2 = all(mem2.snapshot()[k] == expected[k] for k in expected)
    print(f"shrunk run ({m} pages): {res2.summary()}  correct={ok2}")
    print(
        f"slowdown: x{res2.cycles / res.cycles:.2f} "
        f"(steady-state prediction x{float(placement.ii_q_effective()) / paged.ii:.2f})"
    )


if __name__ == "__main__":
    main()
