"""Cold-compile speed bench: wall clock and search effort per kernel.

``python -m repro.bench compile-speed`` cold-compiles every suite kernel
on one grid (no artifact cache — the mapper runs for real), prints a table
of per-job wall clock split by mapper phase plus the search-effort
counters from :mod:`repro.compiler.stats` (state expansions, BFS/DFS
route searches, placement probes, routes and trials the reachability
filter refuted, memo-table hits).  It prints and records nothing:
numbers that back a performance claim are measured by ``perf/``
(``compile_flat_4x4`` / ``compile_hier_8x8``), which stamps host, core
count, commit and repeats on every result.

``--workers 1`` walks every II ladder inline; ``--workers N`` hands the
same ladder driver a warm N-process pool to race them over (jobs stay
sequential either way).

The jobs here are exactly the Fig. 8 suite configurations
(:func:`repro.bench.fig8.page_sizes_for`), so the timings measure the
compiles the experiment pipeline actually performs on a cold cache.
"""

from __future__ import annotations

from typing import Sequence

from repro.bench.fig8 import page_sizes_for
from repro.compiler.search import SearchContext, ladder_totals
from repro.kernels import kernel_names
from repro.pipeline.compile import CompileJob, CompileStats, compile_job_stats

__all__ = [
    "run_compile_speed",
    "render_report",
    "backend_summary",
    "search_totals",
    "main",
]


def run_compile_speed(
    *,
    size: int = 4,
    kernels: Sequence[str] | None = None,
    page_sizes: Sequence[int] | None = None,
    seed: int = 0,
    workers: int = 1,
    arch: str | None = None,
    backend: str = "flat",
) -> list[CompileStats]:
    """Cold-compile the suite and return one :class:`CompileStats` per job.

    With ``workers > 1`` each job's (II, attempt) ladders race speculative
    probes over one shared process pool (jobs stay sequential, so per-job
    timings and counters remain cleanly attributed); artifacts and IIs are
    byte-identical to the serial run.  *arch* selects a fabric preset
    (``repro.arch.presets``; overrides *size*), *backend* the paged
    mapping strategy (one of :data:`repro.compiler.ems.BACKENDS`).
    """
    if arch is not None:
        from repro.arch.presets import preset

        size = preset(arch).rows
    names = list(kernels) if kernels else kernel_names()
    sizes = list(page_sizes) if page_sizes else page_sizes_for(size)
    jobs = [
        CompileJob(kernel, size, ps, seed=seed, arch=arch, backend=backend)
        for kernel in names
        for ps in sizes
    ]
    stats: list[CompileStats] = []
    if workers > 1:
        with SearchContext.create(workers) as ctx:
            for job in jobs:
                stats.append(compile_job_stats(job, search=ctx)[1])
    else:
        for job in jobs:
            stats.append(compile_job_stats(job)[1])
    return stats


def render_report(stats: Sequence[CompileStats]) -> str:
    """Table of per-job timings and search counters."""
    header = (
        f"{'kernel':<10} {'ps':>2} {'seconds':>8} {'base_s':>7} {'paged_s':>8} "
        f"{'expand':>9} {'probes':>7} {'bfs':>6} {'dfs':>7} "
        f"{'routes_refuted':>14} {'trials_refuted':>14} {'memo_hits':>9}"
    )
    lines = [header, "-" * len(header)]
    for st in stats:
        c = st.counters
        memo = c.get("target_cache_hits", 0) + c.get("move_cache_hits", 0)
        lines.append(
            f"{st.kernel:<10} {st.page_size:>2} {st.seconds:>8.3f} "
            f"{st.base_map_seconds:>7.3f} {st.paged_map_seconds:>8.3f} "
            f"{c.get('expansions', 0):>9} {c.get('placement_probes', 0):>7} "
            f"{c.get('bfs_calls', 0):>6} {c.get('dfs_calls', 0):>7} "
            f"{c.get('routes_refuted', 0):>14} {c.get('trials_refuted', 0):>14} "
            f"{memo:>9}"
        )
    total = sum(st.seconds for st in stats)
    lines.append(f"total: {total:.2f}s over {len(stats)} cold compile(s)")
    hier_att = sum(st.counters.get("hier_attempts", 0) for st in stats)
    if hier_att:
        hier_wins = sum(st.counters.get("hier_wins", 0) for st in stats)
        flat_att = sum(st.counters.get("hier_flat_attempts", 0) for st in stats)
        flat_wins = sum(st.counters.get("hier_flat_wins", 0) for st in stats)
        lines.append(
            f"hier backend: clustered {hier_wins}/{hier_att} wins, "
            f"flat-fallback {flat_wins}/{flat_att} wins"
        )
    skipped = sum(st.counters.get("rungs_skipped", 0) for st in stats)
    if skipped:
        lines.append(f"II rungs: {skipped} skipped (ladder memoization)")
    board = backend_summary(stats)
    if len(board) > 1 or any(b != "flat" for b in board):
        lines.append("backend leaderboard (by total seconds):")
        for name, rec in sorted(board.items(), key=lambda kv: kv[1]["seconds"]):
            extra = ""
            if rec.get("win_rate") is not None:
                extra = f", win rate {rec['win_rate']:.0%}"
            lines.append(
                f"  {name:<6} {rec['seconds']:>8.2f}s over {rec['jobs']} "
                f"job(s){extra}"
            )
    search = search_totals(stats)
    if search is not None:
        lines.append(
            "speculation: {probes_launched} probes launched, "
            "{probes_cancelled} cancelled, {probes_wasted} wasted "
            "({useful_seconds:.2f}s useful / {wasted_seconds:.2f}s wasted, "
            "efficiency {speculation_efficiency:.0%})".format(**search)
        )
    return "\n".join(lines)


def backend_summary(stats: Sequence[CompileStats]) -> dict[str, dict]:
    """Per-backend aggregate: job count, wall clock, rung accounting and
    the backend's *win rate* — how often its distinguishing mechanism beat
    the plain flat ladder (clustered placements for ``hier``; the flat
    ladder has no such mechanism, so its rate is ``None``)."""
    out: dict[str, dict] = {}
    for st in stats:
        rec = out.setdefault(
            st.backend,
            {
                "jobs": 0,
                "seconds": 0.0,
                "rungs_skipped": 0,
                "hier_attempts": 0,
                "hier_wins": 0,
            },
        )
        rec["jobs"] += 1
        rec["seconds"] += st.seconds
        for k in ("rungs_skipped", "hier_attempts", "hier_wins"):
            rec[k] += st.counters.get(k, 0)
    for name, rec in out.items():
        rec["seconds"] = round(rec["seconds"], 3)
        if name == "hier" and rec["hier_attempts"]:
            rec["win_rate"] = round(rec["hier_wins"] / rec["hier_attempts"], 4)
        else:
            rec["win_rate"] = None
    return out


def search_totals(stats: Sequence[CompileStats]) -> dict | None:
    """Aggregate the speculative-search stats across jobs (``None`` when
    no job was handed a search context)."""
    ladders = [st.ladders for st in stats if st.ladders is not None]
    if not ladders:
        return None
    return ladder_totals(report for job in ladders for report in job)


def main(args) -> int:
    """``python -m repro.bench compile-speed`` body (argparse namespace)."""
    kernels = args.kernels.split(",") if args.kernels else None
    page_sizes = (
        [int(p) for p in args.page_sizes.split(",")] if args.page_sizes else None
    )
    stats = run_compile_speed(
        size=args.size or 4,
        kernels=kernels,
        page_sizes=page_sizes,
        seed=args.seed,
        workers=args.workers or 1,
        arch=args.arch,
        backend=args.backend or "flat",
    )
    print(render_report(stats))
    return 0
