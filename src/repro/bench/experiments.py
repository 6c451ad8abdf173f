"""Experiment registry and command-line entry point.

Every paper artifact has a named experiment that regenerates it::

    python -m repro.bench list
    python -m repro.bench fig8_4x4
    python -m repro.bench fig9_8x8 --page-size 4
    python -m repro.bench headline
    python -m repro.bench all --workers 8
    python -m repro.bench sim-oracle --configs 60

All compilation goes through :mod:`repro.pipeline`; ``--workers N`` fans a
cold cache out over N processes, and after each experiment the CLI reports
the artifact cache's hit/miss counters — a warm run shows zero misses,
i.e. zero mapper invocations.  No timing is taken here: every performance
number is measured and recorded by ``perf/`` (``python perf/run.py``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.arch.presets import experiment_cgra
from repro.bench.fig8 import page_sizes_for, render_fig8, run_fig8
from repro.bench.fig9 import (
    HEADLINE_CLAIMS,
    best_improvement,
    render_fig9,
    run_fig9,
)
from repro.pipeline import ArtifactStore, make_layout
from repro.util.errors import ArchitectureError

__all__ = ["EXPERIMENTS", "main"]


def _fig8(size: int):
    def run(store: ArtifactStore, args) -> str:
        rows = run_fig8(size, store=store, seed=args.seed, workers=args.workers)
        return render_fig8(size, rows)

    return run


def _fig9(size: int):
    def run(store: ArtifactStore, args) -> str:
        ps = args.page_size
        cells = run_fig9(
            size,
            ps,
            store=store,
            seed=args.seed,
            repeats=args.repeats,
            workers=args.workers,
        )
        out = render_fig9(size, ps, cells)
        return out + f"\nbest improvement: {best_improvement(cells) * 100:+.1f}%"

    return run


def _headline(store: ArtifactStore, args) -> str:
    lines = ["headline (abstract): best improvement per CGRA size"]
    for size, claim in HEADLINE_CLAIMS.items():
        best = max(
            best_improvement(
                run_fig9(
                    size,
                    ps,
                    store=store,
                    seed=args.seed,
                    repeats=args.repeats,
                    workers=args.workers,
                )
            )
            for ps in page_sizes_for(size)
        )
        lines.append(
            f"  {size}x{size}: {best * 100:+7.1f}%   (paper claims > {claim * 100:.0f}%)"
        )
    return "\n".join(lines)


#: The fig9 panels and their grid sizes: ``--page-size`` must tile each.
_FIG9_SIZES = {"fig9_4x4": 4, "fig9_6x6": 6, "fig9_8x8": 8}
#: The fig9 page size when ``--page-size`` is not given.
_FIG9_PAGE_SIZE = 4

EXPERIMENTS: dict[str, Callable] = {
    "fig8_4x4": _fig8(4),
    "fig8_6x6": _fig8(6),
    "fig8_8x8": _fig8(8),
    **{name: _fig9(size) for name, size in _FIG9_SIZES.items()},
    "headline": _headline,
}

#: What ``list`` prints: the paper registry plus the simulator's differential
#: check, which compiles nothing and touches no store.
_LISTED = (*EXPERIMENTS, "sim-oracle")


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    p.add_argument("experiment", choices=[*_LISTED, "all", "list"])
    p.add_argument(
        "--page-size",
        type=int,
        default=None,
        help=f"page size of the fig9 experiments (default {_FIG9_PAGE_SIZE}); "
        "any other experiment refuses it",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=2)
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes compiling cache misses in parallel (results are "
        "identical to --workers 1; only wall-clock changes)",
    )
    p.add_argument(
        "--configs",
        type=int,
        default=60,
        help="workload configurations to verify (sim-oracle)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    for flag in ("page_size", "repeats", "workers", "configs"):
        value = getattr(args, flag)
        if value is not None and value < 1:
            parser.error(f"--{flag.replace('_', '-')} must be >= 1, got {value}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    if args.page_size is None:
        args.page_size = _FIG9_PAGE_SIZE
    elif args.experiment not in (*_FIG9_SIZES, "all"):
        # fig8 sweeps the paper's page sizes and headline takes the best of
        # them: neither reads the flag, so taking it would be a silent no-op
        parser.error(
            f"--page-size applies to the fig9 experiments only, "
            f"not {args.experiment}"
        )
    if args.experiment == "list":
        print("\n".join(_LISTED))
        return 0
    if args.experiment == "sim-oracle":
        # Pure-simulation differential check: no compilation, no cache.
        from repro.sim.fuzz import run_fuzz

        report = run_fuzz(n_cases=args.configs, seed=args.seed)
        print(report.render())
        return 0 if report.ok else 1
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        if name in _FIG9_SIZES:
            try:
                make_layout(experiment_cgra(_FIG9_SIZES[name]), args.page_size)
            except ArchitectureError as exc:
                parser.error(f"--page-size {args.page_size}: {exc}")
    store = ArtifactStore()
    for name in names:
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        before = store.stats()
        print(EXPERIMENTS[name](store, args))
        after = store.stats()
        print(
            f"[cache] {after['hits'] - before['hits']} hit(s), "
            f"{after['misses'] - before['misses']} miss(es) "
            f"(= mapper invocations), "
            f"{after['compile_seconds'] - before['compile_seconds']:.1f}s compiling"
        )
        print()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
