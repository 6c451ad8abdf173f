"""One workload, one process: set up, repeat the timed section, check, report.

A workload is an object with

* ``name``, ``warmup`` (run one untimed repeat first) and ``max_repeats``;
* ``prepare(run)`` — one-time set-up: generate inputs from ``run.seed``;
* ``repeat(run, index) -> Repeat`` — per-repeat set-up, then the timed section;
* ``check(run, repeats) -> list[str]`` — correctness failures (untimed);
* ``scoped(run, repeats) -> dict`` — its workload-specific end-to-end metrics;
* ``facts(run, repeats, trace) -> dict`` — per-layer counts from public records
  (traced runs only; *trace* is a :class:`perf.layers.Trace`);
* ``cleanup()``.

The timed section of a repeat is the same fixed amount of work every time;
``--seconds`` decides how many repeats fit.  Timed metrics are medians over
the repeats, in seconds of the reference host (:mod:`perf.hostspeed`; the raw
seconds are kept beside them in the record); latency percentiles are taken
over the pooled samples.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from perf import layers, metrics
from perf.hostspeed import HostSpeed
from perf.spans import Tracer, dump_spans, load_spans
from perf.stats import summarize

__all__ = ["ROOT", "OUT", "Repeat", "Run", "TempDirs", "execute", "host_info"]

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
TRACED_REPEATS = 3


@dataclasses.dataclass
class Repeat:
    """What one timed repeat measured."""

    setup_s: float  # this repeat's own set-up (fresh store, server boot, ...)
    start: float  # perf_counter at the start / end of the timed section
    end: float
    attempted: int  # operations: jobs, requests, submits, simulations, folds
    failed: int = 0
    #: everything simulated or counted that must not depend on host speed
    exact: dict = dataclasses.field(default_factory=dict)
    #: workload-private payload for check()/scoped()/facts()
    data: dict = dataclasses.field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.end - self.start


@dataclasses.dataclass
class Run:
    """Arguments and shared state of one workload process."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    check_sizes: bool  # the tiny --check sizes instead of the recorded ones
    process_start: float
    #: started by the process's entry point; one that never sampled (tests)
    #: leaves every time in raw seconds
    host: HostSpeed = dataclasses.field(default_factory=HostSpeed)
    setup_only: bool = False  # stop after the one-time set-up and print its time
    tracer: Tracer | None = None
    child_rss_kib: int = 0  # peak RSS of a server child, when the workload has one
    child_traces: list[Path] = dataclasses.field(default_factory=list)

    def ambient(self, req: str) -> None:
        """Name the operation the workload's loop is about to drive."""
        if self.tracer is not None:
            self.tracer.ambient = req

    def size(self, full, tiny):
        return tiny if self.check_sizes else full

    @property
    def sizes(self) -> str:
        return "check" if self.check_sizes else "recorded"


class TempDirs:
    """Base of the workloads: the temp directories they make — under
    ``perf/out/tmp``, so that a run writes nowhere but ``perf/out`` — removed
    by ``cleanup()`` whatever happened."""

    def __init__(self) -> None:
        self._dirs: list[str] = []

    def tempdir(self, prefix: str) -> Path:
        (OUT / "tmp").mkdir(parents=True, exist_ok=True)
        self._dirs.append(tempfile.mkdtemp(prefix=prefix, dir=OUT / "tmp"))
        return Path(self._dirs[-1])

    def cleanup(self) -> None:
        for d in self._dirs:
            shutil.rmtree(d, ignore_errors=True)


def host_info() -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
            # a checkout that is no repository must not find one further up
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha or "unknown",
    }


def _repeat_loop(workload, run: Run) -> tuple[list[Repeat], list[tuple[float, float]]]:
    warmups = []
    if workload.warmup:
        warm = workload.repeat(run, -1)
        warmups.append((warm.start, warm.end))
    # a traced run keeps every span in memory; three repeats are enough for it
    limit = min(workload.max_repeats, TRACED_REPEATS) if run.trace else workload.max_repeats
    if run.check_sizes:
        limit = min(limit, 2)  # --check only has to walk every path
    repeats: list[Repeat] = []
    spent = 0.0
    while True:
        repeats.append(workload.repeat(run, len(repeats)))
        spent += repeats[-1].wall_s
        # only start a repeat that is expected to fit in the budget
        if len(repeats) >= limit or spent + spent / len(repeats) > run.seconds:
            return repeats, warmups


#: The one-time set-up is timed again in fresh processes while it is this cheap.
FRESH_SETUP_LIMIT_S = 1.0
FRESH_SETUPS = 2


def _fresh_setups(run: Run) -> list[float]:
    """The one-time set-up (imports, input generation) timed again in fresh
    interpreters: one process start is one sample, and a noisy one."""
    argv = [
        sys.executable, str(ROOT / "perf" / "run.py"), "--workload", run.workload,
        "--seed", str(run.seed), "--setup-only",
    ]
    samples = []
    for _ in range(FRESH_SETUPS):
        done = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up only run failed:\n{done.stderr}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def execute(workload, run: Run) -> tuple[dict, int]:
    """Run *workload*; returns (record, exit code).  The record's ``result``
    is the contract's last-line object."""
    if run.trace:
        run.tracer = Tracer()
        layers.install(run.tracer)
    try:
        workload.prepare(run)
        prepared = time.perf_counter()
        setups = [run.host.work_seconds(run.process_start, prepared)]
        if run.setup_only:
            print(setups[0])
            return {}, 0
        repeats, warmups = _repeat_loop(workload, run)
        problems = workload.check(run, repeats)
        if setups[0] < FRESH_SETUP_LIMIT_S and not (run.trace or run.check_sizes):
            setups += _fresh_setups(run)
        record = _report(workload, run, repeats, warmups, setups, problems)
    finally:
        workload.cleanup()
        if run.tracer is not None:
            run.tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload}-seed{run.seed}-t{int(run.trace)}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record, 0 if record["result"]["correct"] else 1


def _report(workload, run, repeats, warmups, setups, problems) -> dict:
    attempted = sum(r.attempted for r in repeats)
    failed = sum(r.failed for r in repeats)
    host = run.host
    walls = [host.work_seconds(r.start, r.end) for r in repeats]
    wall = statistics.median(walls)
    slowdowns = [r.wall_s / w for r, w in zip(repeats, walls)]
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    end_to_end = {
        "wall_s": wall,
        "peak_rss_mb": (run.child_rss_kib or self_rss) / 1024,
        "setup_s": statistics.median(setups)
        + statistics.median(host.work_seconds(r.start - r.setup_s, r.start) for r in repeats),
    }
    scoped = dict(workload.scoped(run, repeats))
    scoped["failed_share"] = failed / attempted
    for name in set(repeats[0].exact):
        values = {json.dumps(r.exact[name], sort_keys=True) for r in repeats}
        if len(values) > 1:
            problems.append(f"{name} differs between repeats: {sorted(values)}")
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "sizes": run.sizes,
        **host_info(),
        "repeats": len(repeats),
        "warmups": len(warmups),
        "wall_s": summarize(walls),
        "wall_raw_s": summarize(r.wall_s for r in repeats),
        "host_slowdown": summarize(slowdowns),
        "setup_once_s": setups,
        "end_to_end": end_to_end,
        "scoped": scoped,
        "exact": repeats[0].exact,
        "rows": repeats[-1].data.get("rows", []),
    }
    if run.trace:
        per_layer, trace_problems = _per_layer(
            workload, run, repeats, warmups, wall, scoped, statistics.median(slowdowns)
        )
        problems.extend(trace_problems)
        record["per_layer"] = per_layer
    record["problems"] = problems
    shown = record["per_layer"] if run.trace else end_to_end
    record["result"] = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": metrics.unit_of(name)}
            for name, value in shown.items()
        },
    }
    return record


def _per_layer(workload, run, repeats, warmups, wall, scoped, slowdown):
    spans = list(run.tracer.spans)
    for path in run.child_traces:
        spans.extend(load_spans(path))
    OUT.mkdir(exist_ok=True)
    dump_spans(spans, OUT / f"trace-{run.workload}.jsonl")
    trace = layers.Trace(spans, [(r.start, r.end) for r in repeats], warmups)
    facts = dict(workload.facts(run, repeats, trace))
    facts["bench.trace_overhead_ratio"] = _overhead(run, wall)
    facts["bench.host_slowdown"] = slowdown
    per_layer = {
        name: trace.value(name)
        if name in metrics.SPAN_METRICS
        else facts.get(name, scoped.get(name, 0.0))
        for name in metrics.PER_LAYER
    }
    return per_layer, trace.problems(run.workload)


def _overhead(run: Run, traced_wall: float) -> float:
    """Traced wall_s over the untraced wall_s of the same workload and sizes,
    read from the untraced run's record (same seed if there is one)."""
    same_seed = OUT / f"{run.workload}-seed{run.seed}-t0.json"
    candidates = [same_seed] if same_seed.exists() else sorted(
        OUT.glob(f"{run.workload}-seed*-t0.json"), key=lambda p: p.stat().st_mtime
    )
    for path in reversed(candidates):
        untraced = json.loads(path.read_text())
        if untraced.get("sizes") == run.sizes:
            return traced_wall / untraced["end_to_end"]["wall_s"]
    print(
        f"perf: no untraced record of {run.workload} in {OUT}; "
        "bench.trace_overhead_ratio reported as 0",
        file=sys.stderr,
    )
    return 0.0
