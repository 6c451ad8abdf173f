"""The benchmark's one command.

``python perf/run.py --seed 0``
    every workload, each in a fresh subprocess, tracing off; every correctness
    check; every end-to-end metric by name with its unit.  ``--trace`` repeats
    the workloads with the span wrappers installed and prints the per-layer
    metrics; ``--workloads a,b`` selects; ``--runs N`` repeats each workload
    with seeds ``seed .. seed+N-1`` (what the acceptance check does with ten);
    ``--check`` runs tiny sizes through everything, traced path included.
    Results go to ``perf/out/suite-<label>.json``.

``python perf/run.py --workload NAME --seed N --seconds S --trace 0|1``
    one workload in this process (what the suite spawns, and what the driver
    of ``BENCHMARK.json`` calls); the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts before the imports it times
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perf import metrics  # noqa: E402
from perf.stats import quartiles  # noqa: E402


def build_workload(name: str):
    """The workload object for *name* (imports the layers it drives)."""
    if name.startswith("compile_"):
        from perf.wl_compile import CompileSuite

        if name == "compile_flat_4x4":
            return CompileSuite(name, size=4, page_sizes=(2, 4), parity=True)
        return CompileSuite(
            name, size=8, page_sizes=(4, 8), arch="8x8-memcols", backend="hier"
        )
    if name in ("serve_zipf", "serve_warm", "service_burst"):
        from perf import wl_serve

        if name == "service_burst":
            return wl_serve.ServiceBurst()
        if name == "serve_zipf":
            return wl_serve.ServeLoad(name, requests=1500, prefilled=False, max_repeats=3)
        return wl_serve.ServeLoad(name, requests=1500, prefilled=True, max_repeats=5)
    if name.startswith("sim_"):
        from repro.core.policies import FairSharePolicy, HalvingPolicy

        from perf.wl_sim import SimSystem

        if name == "sim_bursty_halving":
            return SimSystem(
                name, threads=3000, policy=HalvingPolicy,
                trace_kwargs=dict(
                    arrival_model="bursty", mean_arrival_gap=20.0, burst_size=16,
                    mean_total_work=2_000,
                ),
            )
        return SimSystem(
            name, threads=800, policy=FairSharePolicy,
            trace_kwargs=dict(
                arrival_model="poisson", mean_arrival_gap=8.0, mean_total_work=1_500
            ),
        )
    from perf.wl_fold import FoldExec

    return FoldExec()


def run_one(args) -> int:
    """Contract mode: one workload here; last stdout line is the result."""
    from perf.hostspeed import HostSpeed

    host = HostSpeed()
    host.start()  # before the imports below: they are most of the set-up
    from perf.harness import Run, execute

    # SIGTERM must unwind like Ctrl-C, so the server child and temp dirs go
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=bool(args.trace), check_sizes=args.check, process_start=PROCESS_START,
        host=host, setup_only=args.setup_only,
    )
    try:
        record, code = execute(build_workload(args.workload), run)
    finally:
        host.stop()
    if args.setup_only:
        return code
    for problem in record["problems"]:
        print(f"perf: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps(record["result"]))
    return code


# ------------------------------------------------------------------ suite mode

CHILD_TIMEOUT_S = 900


def _spawn(workload: str, seed: int, seconds: float, trace: int, check: bool) -> dict:
    """One workload in a fresh subprocess; returns its record (with
    ``correct`` False and the reason when the child failed outright)."""
    from perf.harness import OUT

    argv = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--check"] if check else [])
    record_path = OUT / f"{workload}-seed{seed}-t{trace}.json"
    record_path.unlink(missing_ok=True)
    # its own process group, so a timeout or Ctrl-C here takes the workload's
    # server child down with it
    child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise
    if not record_path.exists():
        return {
            "seed": seed, "result": {"correct": False, "attempted": 0, "failed": 0},
            "problems": [f"child exited with code {child.returncode} and no record"],
        }
    record = json.loads(record_path.read_text())
    last_line = json.loads(stdout.strip().splitlines()[-1])
    if last_line != record["result"]:
        record["problems"].append("last stdout line differs from the written record")
        record["result"]["correct"] = False
    return record


def _print_metric(name: str, values: list[float]) -> None:
    unit = metrics.unit_of(name)
    median = statistics.median(values)
    spread = ""
    if len(values) > 1:
        q1, q3 = quartiles(values)
        spread = f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)} runs"
    print(f"  {name:<34} {median:>14.6g} {unit:<6}{spread}")


def _print_workload(name: str, runs: list[dict]) -> int:
    """Print one workload's metrics; returns how many of its runs failed."""
    records = [rec for entry in runs for rec in entry.values()]
    bad = [rec for rec in records if not rec["result"]["correct"]]
    first = runs[0]["untraced"]
    print(
        f"== {name}: {'ok' if not bad else 'FAILED'}  "
        f"repeats={first.get('repeats', 0)} "
        f"attempted={first['result']['attempted']} failed={first['result']['failed']}"
    )
    for rec in bad:
        for problem in rec["problems"]:
            print(f"  !! seed {rec['seed']}: {problem}")
    good = [e["untraced"] for e in runs if "end_to_end" in e["untraced"]]
    if good:
        for metric in metrics.END_TO_END:
            _print_metric(metric, [r["end_to_end"][metric] for r in good])
        for metric, (_unit, _bound, where) in metrics.SCOPED.items():
            if name in where:
                _print_metric(metric, [r["scoped"][metric] for r in good])
    for row in first.get("rows", []):
        if "job" in row:
            detail = f"{row['seconds']:.4f} s  II {row['ii_base']}->{row['ii_paged']}"
        else:
            detail = f"{row['ms']:.3f} ms  {row['cycles']} cycles"
        print(f"    {row.get('job') or row['fold']:<22} {detail}")
    traced = [e["traced"] for e in runs if "per_layer" in e.get("traced", {})]
    if traced:
        print("  -- per layer (traced run)")
        for metric in metrics.PER_LAYER:
            values = [r["per_layer"][metric] for r in traced]
            if metric not in metrics.SCOPED and any(values):
                _print_metric(metric, values)
    return len(bad)


def run_suite(args) -> int:
    from perf.harness import OUT, host_info

    names = args.workloads.split(",") if args.workloads else list(metrics.WORKLOADS)
    unknown = [n for n in names if n not in metrics.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    suite = {
        "label": args.label, "seed": args.seed, "runs": args.runs,
        "seconds": args.seconds, "sizes": "check" if args.check else "recorded",
        **host_info(), "workloads": {},
    }
    failures = 0
    started = time.perf_counter()
    for name in names:
        runs = []
        for k in range(args.runs):
            seed = args.seed + k
            entry = {"untraced": _spawn(name, seed, args.seconds, 0, args.check)}
            if args.trace:
                entry["traced"] = _spawn(name, seed, args.seconds, 1, args.check)
            if k:  # per-job / per-fold rows: the first run's are enough
                for record in entry.values():
                    record.pop("rows", None)
            runs.append(entry)
        suite["workloads"][name] = runs
        failures += _print_workload(name, runs)
    suite["elapsed_s"] = time.perf_counter() - started
    OUT.mkdir(exist_ok=True)
    out = OUT / f"suite-{args.label}.json"
    out.write_text(json.dumps(suite, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"{len(names)} workload(s) in {suite['elapsed_s']:.1f}s -> {out}")
    if failures:
        print(f"{failures} run(s) FAILED a correctness check", file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", choices=list(metrics.WORKLOADS), help="run this one workload in-process")
    p.add_argument("--workloads", help="suite mode: comma-separated subset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, help=f"timed budget per run (default {metrics.RUN_SECONDS}; 1 with --check)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--runs", type=int, default=1, help="suite mode: runs per workload, seeds seed..seed+N-1")
    p.add_argument("--label", help="suite mode: name of the result file")
    p.add_argument("--check", action="store_true", help="tiny sizes through every workload, check and the traced path")
    p.add_argument("--setup-only", action="store_true", help="with --workload: print the one-time set-up's seconds and stop")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1 if args.check else metrics.RUN_SECONDS
    if args.workload:
        return run_one(args)
    if args.check:
        args.trace = 1
    if args.label is None:
        args.label = "check" if args.check else f"seed{args.seed}"
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
