"""``compile_flat_4x4`` / ``compile_hier_8x8``: one cold serial pass of the
paper suite through ``compile_job_stats`` + ``ArtifactStore.put``."""

from __future__ import annotations

import time
from pathlib import Path

import repro.analysis.audit as audit_mod
import repro.pipeline.compile as compile_mod
from repro.kernels import kernel_names
from repro.pipeline.store import STORE_DIRNAME, ArtifactStore

from perf.harness import ROOT, Repeat, Run, TempDirs
from perf.stats import geomean

__all__ = ["CompileSuite", "audit_problems", "parity_problems"]

#: Search-effort counters of ``CompileStats.counters`` reported per layer.
COUNTERS = (
    "expansions", "route_calls", "placement_probes", "trial_commits",
    "rungs_skipped", "rungs_pruned", "hier_attempts", "hier_wins",
    "hier_flat_attempts", "hier_flat_wins",
)


def audit_problems(path: Path, root: Path) -> list[str]:
    """Findings of the mapper-independent auditor on one stored artifact."""
    entry = audit_mod.audit_file(path, path.relative_to(root).as_posix())
    if entry.status == "ok":
        return []
    return [f"audit of {entry.path}: {f.rule_id} {f.message}" for f in entry.findings]


def parity_problems(path: Path, root: Path, committed: Path) -> list[str]:
    """The emitted bytes against the committed store's entry for the same key."""
    reference = committed / path.relative_to(root)
    if not reference.exists():
        return [f"{path.name}: no committed artifact to compare with"]
    if reference.read_bytes() != path.read_bytes():
        return [f"{path.name}: bytes differ from the committed artifact"]
    return []


class CompileSuite(TempDirs):
    """Every suite kernel at two page sizes on one fabric and backend.

    The input is the paper's suite, not a draw: ``--seed`` changes nothing
    here.  In particular it is not the mapper seed, which selects a different
    search rather than a different input — across mapper seeds 0..3 the flat
    suite takes 18.9-23.7 s and its IIs change, which would drown any bound.
    """

    warmup = False  # cold on purpose: users pay the first compile
    max_repeats = 1  # a second pass would run on warmed memo tables

    def __init__(self, name, *, size, page_sizes, arch=None, backend="flat", parity=False):
        super().__init__()
        self.name = name
        self.size = size
        self.page_sizes = page_sizes
        self.arch = arch
        self.backend = backend
        self.parity = parity  # byte-compare with the committed .repro_artifacts/

    def prepare(self, run: Run) -> None:
        kernels = run.size(kernel_names(), ["sor", "mpeg"])
        self.jobs = [
            compile_mod.CompileJob(
                kernel, self.size, ps, seed=0, arch=self.arch, backend=self.backend
            )
            for kernel in kernels
            for ps in self.page_sizes
        ]

    def repeat(self, run: Run, index: int) -> Repeat:
        began = time.perf_counter()
        root = self.tempdir("perf-compile-") / STORE_DIRNAME
        store = ArtifactStore(root)
        rows, paths, failed = [], [], 0
        start = time.perf_counter()
        for job in self.jobs:
            label = f"{job.kernel}/ps{job.page_size}"
            run.ambient(label)
            job_start = time.perf_counter()
            artifact, stats = compile_mod.compile_job_stats(job)
            path = store.put(artifact)
            job_end = time.perf_counter()
            if path is None:
                failed += 1
                continue
            rows.append(
                {
                    "job": label,
                    "seconds": run.host.work_seconds(job_start, job_end),
                    "raw_seconds": job_end - job_start,
                    "ii_base": artifact.ii_base,
                    "ii_paged": artifact.ii_paged,
                    "unmappable": artifact.unmappable,
                    "counters": {k: stats.counters[k] for k in COUNTERS},
                }
            )
            paths.append(path)
        end = time.perf_counter()
        rows.sort(key=lambda r: r["job"])
        exact = {
            r["job"]: [r["ii_base"], r["ii_paged"], r["unmappable"], r["counters"]]
            for r in rows
        }
        return Repeat(
            setup_s=start - began, start=start, end=end, attempted=len(self.jobs),
            failed=failed, exact=exact, data={"rows": rows, "paths": paths, "root": root},
        )

    def check(self, run: Run, repeats) -> list[str]:
        problems = []
        self.findings = 0
        root = repeats[-1].data["root"]
        for path in repeats[-1].data["paths"]:
            found = audit_problems(path, root)
            self.findings += len(found)
            problems += found
            if self.parity:
                problems += parity_problems(path, root, ROOT / STORE_DIRNAME)
        return problems

    def scoped(self, run: Run, repeats) -> dict:
        rows = repeats[-1].data["rows"]
        mapped = [r for r in rows if not r["unmappable"]]
        return {
            "job_geomean_s": geomean(r["seconds"] for r in rows),
            "ii_ratio_geomean": geomean(r["ii_paged"] / r["ii_base"] for r in mapped),
            "unmappable_jobs": len(rows) - len(mapped),
        }

    def facts(self, run: Run, repeats, trace) -> dict:
        rows = repeats[-1].data["rows"]
        root = repeats[-1].data["root"]
        total = {k: sum(r["counters"][k] for r in rows) for k in COUNTERS}
        wall = repeats[-1].wall_s
        slowest = sorted((r["raw_seconds"] for r in rows), reverse=True)
        facts = {f"compiler.{k}": v for k, v in total.items()}
        facts.update(
            {
                "compiler.commit_ratio": total["trial_commits"]
                / max(1, total["placement_probes"]),
                "compiler.hier_win_ratio": total["hier_wins"]
                / max(1, total["hier_attempts"]),
                "compiler.expansions_per_s": total["expansions"] / wall,
                "compiler.top3_share": sum(slowest[:3]) / wall,
                "pipeline.artifact_bytes": sum(
                    p.stat().st_size for p in root.rglob("*.json")
                ),
                "analysis.audit_findings": self.findings,
            }
        )
        return facts
