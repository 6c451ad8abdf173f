"""Experiment registry and command-line entry point.

Every paper artifact has a named experiment that regenerates it::

    python -m repro.bench list
    python -m repro.bench fig8_4x4
    python -m repro.bench fig9_8x8 --page-size 4
    python -m repro.bench headline
    python -m repro.bench all --workers 8
    python -m repro.bench compile-speed --kernels mpeg,wavelet
    python -m repro.bench sim-oracle --configs 60
    python -m repro.bench serve --requests 80 --clients 8

All compilation goes through :mod:`repro.pipeline`; ``--workers N`` fans a
cold cache out over N processes, and after each experiment the CLI reports
the artifact cache's hit/miss counters — a warm run shows zero misses,
i.e. zero mapper invocations.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.bench.fig8 import page_sizes_for, render_fig8, run_fig8
from repro.bench.fig9 import best_improvement, render_fig9, run_fig9
from repro.compiler.ems import BACKENDS
from repro.pipeline import ArtifactStore

__all__ = ["EXPERIMENTS", "run_experiment", "main"]


def _fig8(size: int):
    def run(store: ArtifactStore, args) -> str:
        rows = run_fig8(size, store=store, seed=args.seed, workers=args.workers)
        if getattr(args, "json", None):
            from repro.bench.reporting import fig8_to_records, write_json

            write_json(fig8_to_records(size, rows), args.json)
        return render_fig8(size, rows)

    return run


def _fig9(size: int):
    def run(store: ArtifactStore, args) -> str:
        ps = args.page_size or 4
        cells = run_fig9(
            size,
            ps,
            store=store,
            seed=args.seed,
            repeats=args.repeats,
            workers=args.workers,
        )
        if getattr(args, "json", None):
            from repro.bench.reporting import fig9_to_records, write_json

            write_json(fig9_to_records(size, ps, cells), args.json)
        out = render_fig9(size, ps, cells)
        return out + f"\nbest improvement: {best_improvement(cells) * 100:+.1f}%"

    return run


def _headline(store: ArtifactStore, args) -> str:
    lines = ["headline (abstract): best improvement per CGRA size"]
    claims = {4: 30, 6: 75, 8: 150}
    for size in (4, 6, 8):
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
            f"  {size}x{size}: {best * 100:+7.1f}%   (paper claims > {claims[size]}%)"
        )
    return "\n".join(lines)


EXPERIMENTS: dict[str, Callable] = {
    "fig8_4x4": _fig8(4),
    "fig8_6x6": _fig8(6),
    "fig8_8x8": _fig8(8),
    "fig9_4x4": _fig9(4),
    "fig9_6x6": _fig9(6),
    "fig9_8x8": _fig9(8),
    "headline": _headline,
}


def run_experiment(name: str, store: ArtifactStore | None = None, argv=()) -> str:
    """Run one named experiment and return its report text."""
    args = _parser().parse_args([name, *argv])
    return EXPERIMENTS[name](store or ArtifactStore(), args)


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    p.add_argument(
        "experiment",
        choices=[
            *EXPERIMENTS,
            "compile-speed",
            "analysis",
            "sim-oracle",
            "policies",
            "serve",
            "all",
            "list",
        ],
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="policies/serve: tiny oracle-verified CI variant",
    )
    p.add_argument("--page-size", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=2)
    # compile-speed options (ignored by the figure experiments)
    p.add_argument("--size", type=int, default=None, help="grid size (compile-speed)")
    p.add_argument(
        "--kernels",
        default=None,
        help="comma-separated kernel subset (compile-speed; default: full suite)",
    )
    p.add_argument(
        "--page-sizes",
        default=None,
        help="comma-separated page sizes (compile-speed; default: suite set)",
    )
    p.add_argument(
        "--arch",
        default=None,
        help="fabric preset name from repro.arch.presets (compile-speed; "
        "overrides --size)",
    )
    p.add_argument(
        "--backend",
        choices=BACKENDS,
        default=None,
        help="paged mapping backend (compile-speed; default flat)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="processes compiling cache misses in parallel (results are "
        "identical to --workers 1; only wall-clock changes)",
    )
    p.add_argument(
        "--json", default=None, help="also write the series as JSON records"
    )
    p.add_argument(
        "--configs",
        type=int,
        default=60,
        help="workload configurations to verify (sim-oracle)",
    )
    p.add_argument(
        "--requests",
        type=int,
        default=80,
        help="load-generator request count (serve)",
    )
    p.add_argument(
        "--clients",
        type=int,
        default=8,
        help="concurrent keep-alive client connections (serve)",
    )
    p.add_argument(
        "--slots",
        type=int,
        default=2,
        help="concurrent compile slots in the service (serve)",
    )
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.experiment == "list":
        print(
            "\n".join(
                [
                    *EXPERIMENTS,
                    "compile-speed",
                    "analysis",
                    "sim-oracle",
                    "policies",
                    "serve",
                ]
            )
        )
        return 0
    if args.experiment == "analysis":
        # Lint + audit over the default tree/store; same exit-code
        # contract as `python -m repro.analysis all --strict`.
        from repro.analysis.cli import main as analysis_main

        return analysis_main(["all", "--strict"])
    if args.experiment == "policies":
        # Policy tournament: pure simulation.
        from repro.bench.policies import main as policies_main

        return policies_main(args)
    if args.experiment == "serve":
        # Compile-as-a-service load bench: own ephemeral server + store.
        from repro.bench.serve import main as serve_main

        return serve_main(args)
    if args.experiment == "sim-oracle":
        # Pure-simulation differential check: no compilation, no cache.
        from repro.sim.fuzz import run_fuzz

        report = run_fuzz(n_cases=args.configs, seed=args.seed)
        print(report.render())
        return 0 if report.ok else 1
    if args.experiment == "compile-speed":
        # Deliberately cache-free (it measures the mapper, not the store),
        # so it bypasses the ArtifactStore loop below.
        from repro.bench.compile_speed import main as compile_speed_main

        return compile_speed_main(args)
    store = ArtifactStore()
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
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
