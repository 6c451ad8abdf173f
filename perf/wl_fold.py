"""``fold_exec``: the paper's runtime path.  Every mappable committed 4x4
artifact is folded onto every M <= pages_used by PageMaster, retargeted, and
executed cycle-accurately; the memory it leaves must equal the kernel's
reference arrays bit for bit."""

from __future__ import annotations

import shutil
import time

import numpy as np

import repro.pipeline.compile as compile_mod
import repro.sim.cgra_sim as cgra_sim_mod
import repro.sim.retarget as retarget_mod
from repro.compiler.constraints import paged_bus_key
from repro.core.pagemaster import PageMaster
from repro.core.transform_check import check_placement
from repro.kernels import bind_memory, get_kernel, kernel_names
from repro.pipeline.store import STORE_DIRNAME, ArtifactStore
from repro.util.errors import ConstraintViolation

from perf.harness import ROOT, Repeat, Run, TempDirs
from perf.stats import geomean

__all__ = ["FoldExec", "snapshot_problems"]


def snapshot_problems(label: str, snapshot: dict, expected: dict) -> list[str]:
    """Arrays of a memory snapshot that differ from the reference output."""
    return [
        f"{label}: array {name!r} differs from the reference"
        for name in sorted(expected)
        if not np.array_equal(snapshot[name], expected[name])
    ]


class FoldExec(TempDirs):
    name = "fold_exec"
    warmup = True  # a runtime folds the same schedules again and again
    max_repeats = 9

    def prepare(self, run: Run) -> None:
        self.trip = run.size(32, 8)
        kernels = run.size(kernel_names(), ["sor", "mpeg"])
        jobs = [compile_mod.CompileJob(k, 4, ps) for k in kernels for ps in (2, 4)]
        # the committed store is only ever read through a temp copy
        store = ArtifactStore(self.tempdir("perf-fold-") / STORE_DIRNAME)
        committed = ArtifactStore(ROOT / STORE_DIRNAME)
        self.items = []
        for job in jobs:
            key = compile_mod.job_key(job)
            target = store.path_for(key)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(committed.path_for(key), target)
            artifact = store.get(key)
            if artifact is None:
                raise RuntimeError(f"committed artifact for {job} is unreadable")
            if artifact.unmappable:
                continue
            spec = get_kernel(job.kernel)
            dfg, arrays, expected = spec.fresh(seed=run.seed + 7, trip=self.trip)
            self.items.append(
                {
                    "label": f"{job.kernel}/ps{job.page_size}",
                    "paged": artifact.materialize(dfg),
                    "pages": artifact.pages_used,
                    "arrays": arrays,
                    "expected": expected,
                }
            )

    def repeat(self, run: Run, index: int) -> Repeat:
        began = time.perf_counter()
        # placements and snapshots of the latest repeat only: keeping every
        # repeat's would make peak RSS grow with the number of repeats
        self.folds = folds = []
        start = time.perf_counter()
        for item in self.items:
            paged = item["paged"]
            batches = retarget_mod.required_batches(paged.mapping, self.trip)
            bus_key = paged_bus_key(paged.layout)
            for m in range(item["pages"], 0, -1):
                run.ambient(f"{item['label']}@{m}")
                fold_start = time.perf_counter()
                memory = bind_memory(item["arrays"])
                placement = PageMaster(
                    paged.layout.num_pages, paged.ii, m, wrap_used=paged.wrap_used
                ).place(batches=batches)
                firings = retarget_mod.retarget_firings(
                    paged, placement, list(range(m)), memory, self.trip
                )
                result = cgra_sim_mod.simulate(
                    firings, paged.mapping.cgra, memory, bus_key=bus_key
                )
                folds.append(
                    {
                        "fold": f"{item['label']}@{m}",
                        "ms": run.host.work_seconds(fold_start, time.perf_counter()) * 1e3,
                        "item": item,
                        "m": m,
                        "cycles": result.cycles,
                        "firings": result.firings,
                        "placement": placement,
                        "snapshot": memory.snapshot(),
                    }
                )
        end = time.perf_counter()
        exact = {f["fold"]: [f["cycles"], f["firings"]] for f in folds}
        rows = [{k: f[k] for k in ("fold", "cycles", "ms")} for f in folds]
        return Repeat(
            setup_s=start - began, start=start, end=end, attempted=len(folds),
            exact=exact, data={"rows": rows},
        )

    def check(self, run: Run, repeats) -> list[str]:
        problems = []
        for fold in self.folds:
            problems += snapshot_problems(
                fold["fold"], fold["snapshot"], fold["item"]["expected"]
            )
            try:
                check_placement(fold["placement"])
            except ConstraintViolation as exc:
                problems.append(f"{fold['fold']}: placement: {exc}")
        return problems

    def scoped(self, run: Run, repeats) -> dict:
        folds = self.folds
        full = {f["item"]["label"]: f["cycles"] for f in folds if f["m"] == f["item"]["pages"]}
        return {
            "fold_overhead_geomean": geomean(
                f["cycles"] / full[f["item"]["label"]] * f["m"] / f["item"]["pages"]
                for f in folds
            )
        }

    def facts(self, run: Run, repeats, trace) -> dict:
        folds = self.folds
        firings = sum(f["firings"] for f in folds)
        return {
            "sim.firings": firings,
            "sim.exec_cycles": sum(f["cycles"] for f in folds),
            "sim.firings_per_s": firings / repeats[-1].wall_s,
        }
