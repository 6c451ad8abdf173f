"""SAT — the page-count bottleneck (§VII-B.2).

"The case of the 4x4 CGRA is unique, as there are many more threads than
pages, forcing threads to stall ... thus multithreading performance is
limited.  However, as CGRA size increases and subsequently the number of
pages available, multithreading performance greatly improves."

This bench measures queue-wait time and improvement as the thread count
crosses the page count, on a 4-page and a 16-page array.
"""

from __future__ import annotations

from statistics import mean

from conftest import emit
from repro.pipeline import build_profiles
from repro.core.paging import PageLayout, choose_page_shape
from repro.arch.cgra import CGRA
from repro.sim.system import SystemConfig, improvement, simulate_system
from repro.sim.workload import generate_workload
from repro.util.rng import derive_seed
from repro.util.tables import format_table


def _panel(size, page_size, store, thread_counts):
    profiles = build_profiles(size, page_size, store=store)
    n_pages = PageLayout(
        CGRA(size, size), choose_page_shape(page_size, size, size)
    ).num_pages
    nominal = {k: p.ii_paged for k, p in profiles.items()}
    cfg = SystemConfig(n_pages=n_pages, profiles=profiles)
    out = []
    for n_threads in thread_counts:
        imps, waits = [], []
        for r in range(3):
            wl = generate_workload(
                n_threads,
                0.875,
                sorted(profiles),
                nominal,
                seed=derive_seed(2, "sat", size, n_threads, r),
            )
            base = simulate_system(wl, cfg, "single")
            mt = simulate_system(wl, cfg, "multithreaded")
            imps.append(improvement(base, mt))
            waits.append(mt.wait_cycles / max(mt.makespan, 1))
        out.append((n_threads, mean(imps), mean(waits)))
    return n_pages, out


def test_saturation(store):
    panels = {
        size: _panel(size, 4, store, (2, 4, 8, 16, 32))
        for size in (4, 8)
    }
    for size, (n_pages, rows) in panels.items():
        emit(
            format_table(
                ["threads", "improvement", "wait / makespan"],
                [
                    [t, f"{imp * 100:+.1f}%", f"{w:.2f}"]
                    for (t, imp, w) in rows
                ],
                title=(
                    f"SAT — saturation on {size}x{size} "
                    f"({n_pages} pages, 87.5% need)"
                ),
            )
        )
    # queueing appears once threads exceed pages on the small array
    small_pages, small_rows = panels[4]
    oversub = [w for (t, _, w) in small_rows if t > small_pages]
    undersub = [w for (t, _, w) in small_rows if t <= small_pages]
    assert max(oversub) > max(undersub)
    # the large array sustains growth further: its improvement at 16
    # threads beats the small array's
    big_imp = dict((t, i) for (t, i, _) in panels[8][1])
    small_imp = dict((t, i) for (t, i, _) in small_rows)
    assert big_imp[16] > small_imp[16]
