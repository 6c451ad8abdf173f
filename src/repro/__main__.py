"""``python -m repro`` — a five-minute guided demo of the reproduction.

Compiles a kernel under the paper's paging constraints, shows the mapping
and its page-level schedule, shrinks it with PageMaster, executes both
schedules cycle-accurately, and finishes with a miniature multithreading
experiment.  For the full figure suite use ``python -m repro.bench``.

    python -m repro [KERNEL]      # KERNEL defaults to mpeg
"""

from __future__ import annotations

import argparse
import sys

from repro import viz
from repro.arch.presets import preset
from repro.compiler.paged import map_dfg_paged
from repro.compiler.constraints import paged_bus_key
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import bind_memory, get_kernel, kernel_names
from repro.pipeline import ArtifactStore, build_profiles
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings
from repro.sim.system import SystemConfig, improvement, simulate_system
from repro.sim.workload import generate_workload


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="A guided demo of the reproduction on one kernel.",
    )
    p.add_argument(
        "kernel", nargs="?", default="mpeg", choices=kernel_names(),
        help="the kernel to compile and run (default: mpeg)",
    )
    kernel = p.parse_args(argv).kernel
    trip = 24
    cgra = preset("4x4")
    layout = PageLayout(cgra, (2, 2))
    print(viz.render_layout(layout))

    spec = get_kernel(kernel)
    paged = map_dfg_paged(spec.build(), cgra, layout)
    print()
    print(viz.render_mapping(paged.mapping, max_slots=2))
    print()
    print(viz.render_page_schedule(paged.page_schedule))

    dfg, arrays, expected = spec.fresh(seed=1, trip=trip)
    mem = bind_memory(arrays)
    full = simulate(
        lower_mapping(paged.mapping, mem, trip),
        cgra,
        mem,
        bus_key=paged_bus_key(paged.layout),
    )
    ok = all(mem.snapshot()[k] == expected[k] for k in expected)
    print(f"\nfull-size execution: {full.summary()}  correct={ok}")

    m = max(1, paged.pages_used // 2)
    placement = PageMaster(
        paged.pages_used, paged.ii, m, wrap_used=paged.wrap_used
    ).place(batches=required_batches(paged.mapping, trip))
    print()
    print(viz.render_placement(placement, max_rows=8))
    _, arrays2, _ = spec.fresh(seed=1, trip=trip)
    mem2 = bind_memory(arrays2)
    shrunk = simulate(
        retarget_firings(paged, placement, list(range(m)), mem2, trip),
        cgra,
        mem2,
        bus_key=paged_bus_key(paged.layout),
        rf_depth=32,
    )
    ok2 = all(mem2.snapshot()[k] == expected[k] for k in expected)
    print(
        f"\nshrunk to {m} page(s): {shrunk.summary()}  correct={ok2}  "
        f"slowdown x{shrunk.cycles / full.cycles:.2f}"
    )

    print("\nminiature Fig. 9 (4 threads, 75% CGRA need):")
    profiles = build_profiles(4, 4, store=ArtifactStore())
    nominal = {k: p.ii_paged for k, p in profiles.items()}
    wl = generate_workload(4, 0.75, sorted(profiles), nominal, seed=3)
    cfg = SystemConfig(n_pages=4, profiles=profiles)
    base = simulate_system(wl, cfg, "single")
    mt = simulate_system(wl, cfg, "multithreaded")
    print(
        f"  single-threaded CGRA makespan {base.makespan:.0f}, "
        f"multithreaded {mt.makespan:.0f} "
        f"-> improvement {improvement(base, mt) * 100:+.1f}%"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
