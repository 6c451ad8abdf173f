"""Fig. 9 — system performance improvement from multithreading the CGRA.

For one CGRA size and page size: generate random thread mixes at each CGRA
need level (50% / 75% / 87.5%) and thread count (1, 2, 4, 8, 16), simulate
the single-threaded non-preemptive baseline and the paged multithreaded
system, and report the makespan improvement percentage — the quantity the
paper's Fig. 9 bars show.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.arch.presets import experiment_cgra
from repro.pipeline import ArtifactStore, build_profiles, make_layout
from repro.sim.system import SystemConfig, improvement, simulate_system
from repro.sim.workload import generate_workload
from repro.util.rng import derive_seed
from repro.util.tables import format_table

__all__ = [
    "Fig9Cell",
    "run_fig9",
    "render_fig9",
    "NEEDS",
    "THREAD_COUNTS",
    "HEADLINE_CLAIMS",
]

NEEDS = (0.5, 0.75, 0.875)  # the paper's low / medium / high CGRA need
THREAD_COUNTS = (1, 2, 4, 8, 16)

#: The abstract's claim: best-case improvement exceeds this fraction on
#: the size x size CGRA.
HEADLINE_CLAIMS = {4: 0.30, 6: 0.75, 8: 1.50}


@dataclass(frozen=True)
class Fig9Cell:
    """One bar of Fig. 9."""

    need: float
    n_threads: int
    improvement: float  # fractional: 0.30 == +30%
    mt_makespan: float
    base_makespan: float
    mt_utilization: float


def _num_pages(size: int, page_size: int) -> int:
    return make_layout(experiment_cgra(size), page_size).num_pages


def run_fig9(
    size: int,
    page_size: int,
    *,
    needs=NEEDS,
    thread_counts=THREAD_COUNTS,
    seed: int = 0,
    repeats: int = 3,
    store: ArtifactStore | None = None,
    kernels: list[str] | None = None,
    workers: int = 1,
) -> list[Fig9Cell]:
    """Reproduce one panel of Fig. 9.

    ``repeats`` independent workloads per (need, threads) point are
    averaged, since the paper's threads are randomly generated.
    """
    profiles = build_profiles(
        size, page_size, seed=seed, store=store, kernels=kernels, workers=workers
    )
    if not profiles:
        return []
    n_pages = _num_pages(size, page_size)
    config = SystemConfig(n_pages=n_pages, profiles=profiles)
    nominal = {k: p.ii_paged for k, p in profiles.items()}
    cells: list[Fig9Cell] = []
    for need in needs:
        for n_threads in thread_counts:
            imps, mts, bases, utils = [], [], [], []
            for r in range(repeats):
                wl_seed = derive_seed(seed, "fig9", size, page_size, int(need * 1000), n_threads, r)
                workload = generate_workload(
                    n_threads, need, sorted(profiles), nominal, seed=wl_seed
                )
                base = simulate_system(workload, config, "single")
                mt = simulate_system(workload, config, "multithreaded")
                imps.append(improvement(base, mt))
                mts.append(mt.makespan)
                bases.append(base.makespan)
                utils.append(mt.cgra_utilization)
            cells.append(
                Fig9Cell(
                    need,
                    n_threads,
                    mean(imps),
                    mean(mts),
                    mean(bases),
                    mean(utils),
                )
            )
    return cells


def render_fig9(size: int, page_size: int, cells: list[Fig9Cell]) -> str:
    """Paper-style table: rows = thread counts, columns = CGRA needs."""
    needs = sorted({c.need for c in cells})
    counts = sorted({c.n_threads for c in cells})
    headers = ["threads"] + [f"need={int(n * 100)}%" for n in needs]
    grid = {(c.n_threads, c.need): c for c in cells}
    body = []
    for t in counts:
        row = [t]
        for n in needs:
            c = grid.get((t, n))
            row.append("-" if c is None else f"{c.improvement * 100:+.1f}%")
        body.append(row)
    return format_table(
        headers,
        body,
        title=(
            f"Fig. 9 — multithreading improvement, {size}x{size} CGRA, "
            f"page size {page_size}"
        ),
    )


def best_improvement(cells: list[Fig9Cell]) -> float:
    """Best-case improvement over the panel (the paper's headline metric)."""
    return max((c.improvement for c in cells), default=0.0)
