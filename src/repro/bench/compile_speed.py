"""Cold-compile speed bench: wall clock and search effort per kernel.

``python -m repro.bench compile-speed`` cold-compiles every suite kernel
on one grid (no artifact cache — the mapper runs for real), prints a table
of per-job wall clock split by mapper phase plus the search-effort
counters from :mod:`repro.compiler.stats` (state expansions, BFS/DFS
route searches, placement probes, routes and trials the reachability
filter refuted, memo-table hits), and records the run
as a labelled entry in ``BENCH_compile_speed.json`` at the repository
root.  Entries accumulate across PRs, so the file is a trajectory: the
first entry is the pre-optimisation baseline and the report's geomean
speedup compares the latest run against it.  Every new entry records the
host's ``nproc``: a ``--workers 2`` run on one core and on two are
different measurements, and the file holds both kinds.  Entries of
backends that no longer exist (``pr8-exact-backend``) are data and stay.

``--workers 1`` walks every II ladder inline; ``--workers N`` hands the
same ladder driver a warm N-process pool to race them over (jobs stay
sequential either way).

The jobs here are exactly the Fig. 8 suite configurations
(:func:`repro.bench.fig8.page_sizes_for`), so the timings measure the
compiles the experiment pipeline actually performs on a cold cache.
"""

from __future__ import annotations

import json
import math
import os
import time
from pathlib import Path
from typing import Sequence

from repro.bench.fig8 import page_sizes_for
from repro.kernels import kernel_names
from repro.pipeline.compile import CompileJob, CompileStats, compile_job_stats

__all__ = [
    "run_compile_speed",
    "geomean_speedup",
    "render_report",
    "backend_summary",
    "search_totals",
    "update_bench_file",
    "main",
]

DEFAULT_OUT = "BENCH_compile_speed.json"

# Minimum per-job seconds used in ratio math: records round to 1 ms and
# trivial kernels compile faster than timer noise.
_FLOOR_SECONDS = 1e-3


def _job_key(
    kernel: str, page_size: int, arch: str | None = None, backend: str = "flat"
) -> str:
    """Bench-entry job key.  Arch/backend qualifiers append only when
    non-default, so historical entries (pre-preset, flat-only) keep their
    keys and stay comparable in the geomean."""
    key = f"{kernel}/ps{page_size}"
    if arch is not None:
        key += f"/{arch}"
    if backend != "flat":
        key += f"/{backend}"
    return key


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
        from repro.compiler.search import SearchContext

        with SearchContext.create(workers) as ctx:
            for job in jobs:
                stats.append(compile_job_stats(job, search=ctx)[1])
    else:
        for job in jobs:
            stats.append(compile_job_stats(job)[1])
    return stats


def geomean_speedup(
    baseline: dict[str, float], current: dict[str, float]
) -> float | None:
    """Geometric-mean per-job speedup of *current* over *baseline* (shared
    job keys only).  ``None`` when the runs share no jobs."""
    ratios = []
    for key, base_s in baseline.items():
        cur_s = current.get(key)
        if cur_s is None:
            continue
        ratios.append(
            math.log(max(base_s, _FLOOR_SECONDS) / max(cur_s, _FLOOR_SECONDS))
        )
    if not ratios:
        return None
    return math.exp(sum(ratios) / len(ratios))


def _seconds_by_job(entry: dict) -> dict[str, float]:
    return {key: rec["seconds"] for key, rec in entry["jobs"].items()}


def render_report(stats: Sequence[CompileStats], history: dict | None = None) -> str:
    """Table of per-job timings and search counters, plus the speedup
    against the first (baseline) entry of *history* when one exists."""
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
    entries = (history or {}).get("entries", [])
    if entries:
        base = entries[0]
        current = {
            _job_key(st.kernel, st.page_size, st.arch, st.backend): st.seconds
            for st in stats
        }
        speedup = geomean_speedup(_seconds_by_job(base), current)
        if speedup is not None:
            lines.append(
                f"geomean speedup vs '{base['label']}': {speedup:.2f}x"
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
    records = [st.search for st in stats if st.search is not None]
    if not records:
        return None
    out = {
        k: sum(r[k] for r in records)
        for k in (
            "ladders",
            "probes_launched",
            "probes_cancelled",
            "probes_wasted",
            "useful_seconds",
            "wasted_seconds",
        )
    }
    total = out["useful_seconds"] + out["wasted_seconds"]
    out["useful_seconds"] = round(out["useful_seconds"], 3)
    out["wasted_seconds"] = round(out["wasted_seconds"], 3)
    out["speculation_efficiency"] = (
        round(out["useful_seconds"] / total, 4) if total > 0 else 1.0
    )
    return out


def _entry_from_stats(
    stats: Sequence[CompileStats], label: str, seed: int, workers: int = 1
) -> dict:
    totals: dict[str, int] = {}
    jobs = {}
    for st in stats:
        jobs[_job_key(st.kernel, st.page_size, st.arch, st.backend)] = st.as_record()
        for name, value in st.counters.items():
            totals[name] = totals.get(name, 0) + value
    entry = {
        "label": label,
        # repro: allow[DET-WALL-CLOCK] run date annotates the perf log for humans; artifacts are addressed by content
        "date": time.strftime("%Y-%m-%d"),
        "seed": seed,
        "workers": workers,
        "nproc": os.cpu_count(),
        "total_seconds": round(sum(st.seconds for st in stats), 3),
        "counters_total": totals,
        "backends": backend_summary(stats),
        "jobs": jobs,
    }
    search = search_totals(stats)
    if search is not None:
        entry["search_total"] = search
    return entry


def update_bench_file(
    path: Path,
    stats: Sequence[CompileStats],
    *,
    label: str,
    seed: int,
    workers: int = 1,
) -> dict:
    """Insert/replace the *label* entry in the bench file and refresh the
    headline geomean (latest entry vs the file's first entry)."""
    if path.exists():
        data = json.loads(path.read_text())
    else:
        data = {"bench": "compile_speed", "entries": []}
    entry = _entry_from_stats(stats, label, seed, workers)
    entries = [e for e in data["entries"] if e["label"] != label]
    entries.append(entry)
    data["entries"] = entries
    if len(entries) >= 2:
        speedup = geomean_speedup(
            _seconds_by_job(entries[0]), _seconds_by_job(entries[-1])
        )
        if speedup is not None:
            data["geomean_speedup_vs_baseline"] = round(speedup, 2)
            data["baseline_label"] = entries[0]["label"]
            data["current_label"] = entries[-1]["label"]
    path.write_text(json.dumps(data, indent=1, sort_keys=False) + "\n")
    return data


def main(args) -> int:
    """``python -m repro.bench compile-speed`` body (argparse namespace)."""
    kernels = args.kernels.split(",") if args.kernels else None
    page_sizes = (
        [int(p) for p in args.page_sizes.split(",")] if args.page_sizes else None
    )
    size = args.size or 4
    workers = getattr(args, "workers", 1) or 1
    arch = getattr(args, "arch", None)
    backend = getattr(args, "backend", None) or "flat"
    stats = run_compile_speed(
        size=size,
        kernels=kernels,
        page_sizes=page_sizes,
        seed=args.seed,
        workers=workers,
        arch=arch,
        backend=backend,
    )
    out = Path(args.out or DEFAULT_OUT)
    history = json.loads(out.read_text()) if out.exists() else None
    print(render_report(stats, history))
    if args.dry_run:
        print(f"[dry-run] not updating {out}")
        return 0
    partial = kernels is not None or page_sizes is not None
    if partial and args.label == "current":
        # Partial sweeps (CI smoke) must not overwrite the full-suite entry.
        print(f"[skip] partial kernel/page-size selection; not updating {out}")
        return 0
    if (arch is not None or backend != "flat") and args.label == "current":
        # Arch/backend variants get their own entries; never clobber the
        # default 4x4 flat trajectory under the 'current' label.
        print(
            f"[skip] arch/backend variant needs an explicit --label; "
            f"not updating {out}"
        )
        return 0
    data = update_bench_file(
        out, stats, label=args.label, seed=args.seed, workers=workers
    )
    speedup = data.get("geomean_speedup_vs_baseline")
    suffix = f" (geomean speedup {speedup}x)" if speedup else ""
    print(f"[write] {out}: entry '{args.label}'{suffix}")
    return 0
