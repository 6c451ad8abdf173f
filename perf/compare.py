"""``python perf/compare.py A.json B.json`` — is suite B worse than suite A?

A and B are ``perf/out/suite-*.json`` files (``perf/run.py --runs N``).  For
every (workload, end-to-end metric) this prints both medians, B's median over
A's with A's as the base, the bound, and a verdict:

* ``ok`` — B's median is not worse than A's by more than the bound;
* ``worse`` — it is;
* ``unresolved`` — the run-to-run spread (quartile distance over median, the
  larger of the two suites') is wider than the bound, so the medians decide
  nothing — unless every run of B reads better than every run of A.

Metrics with bound 0 are simulated or counted and must repeat exactly, as must
every entry of the records' ``exact`` tables (IIs, compiler counters, simulated
statistics, fold cycles).  Exits non-zero on any ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perf import metrics  # noqa: E402 - needs the path set above
from perf.stats import quartiles  # noqa: E402


def verdict(a: list[float], b: list[float], bound: float) -> tuple[str, float]:
    """(verdict, spread) for one lower-is-better metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    if bound == 0:
        return ("worse" if med_b > med_a else "ok"), 0.0
    spread = max(
        (q3 - q1) / med if med else 0.0
        for (q1, q3), med in ((quartiles(a), med_a), (quartiles(b), med_b))
    )
    if spread > bound:
        return ("ok" if max(b) < min(a) else "unresolved"), spread
    return ("worse" if med_b > med_a * (1 + bound) else "ok"), spread


def _untraced(suite: dict, workload: str) -> list[dict]:
    return [
        run["untraced"]
        for run in suite["workloads"][workload]
        if "end_to_end" in run["untraced"]
    ]


def compare(suite_a: dict, suite_b: dict, out=sys.stdout) -> int:
    """Print the table; returns the number of ``worse`` verdicts."""
    worse = 0
    header = f"{'workload':<22} {'metric':<26} {'A':>12} {'B':>12} {'B/A':>7} {'bound':>6} {'spread':>7}  verdict"
    print(header, file=out)
    for workload in suite_a["workloads"]:
        if workload not in suite_b["workloads"]:
            continue
        runs_a, runs_b = _untraced(suite_a, workload), _untraced(suite_b, workload)
        if not runs_a or not runs_b:
            print(f"{workload:<22} no completed runs on one side: worse", file=out)
            worse += 1
            continue
        rows = [(m, "end_to_end", bound) for m, (_u, bound) in metrics.END_TO_END.items()]
        rows += [
            (m, "scoped", bound)
            for m, (_u, bound, where) in metrics.SCOPED.items()
            if workload in where
        ]
        for metric, table, bound in rows:
            a = [r[table][metric] for r in runs_a]
            b = [r[table][metric] for r in runs_b]
            word, spread = verdict(a, b, bound)
            med_a, med_b = statistics.median(a), statistics.median(b)
            ratio = f"{med_b / med_a:7.3f}" if med_a else "      -"
            worse += word == "worse"
            print(
                f"{workload:<22} {metric:<26} {med_a:>12.6g} {med_b:>12.6g} {ratio} "
                f"{bound:>6.2f} {spread:>7.3f}  {word}  ({metrics.unit_of(metric)}, base A, "
                f"n={len(a)}/{len(b)})",
                file=out,
            )
        exact_a = {r["seed"]: r["exact"] for r in runs_a}
        differing = sorted(
            f"seed {r['seed']}: {key}"
            for r in runs_b
            if r["seed"] in exact_a
            for key in r["exact"]
            if exact_a[r["seed"]].get(key) != r["exact"][key]
        )
        if differing:
            worse += 1
            print(f"{workload:<22} exact tables differ: {'; '.join(differing[:5])}: worse", file=out)
        else:
            print(f"{workload:<22} exact tables identical on every shared seed", file=out)
    return worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    suite_a, suite_b = (json.loads(Path(p).read_text()) for p in argv)
    worse = compare(suite_a, suite_b)
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
