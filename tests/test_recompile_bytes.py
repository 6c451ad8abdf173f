"""Regression: cold compilation reproduces the committed artifact store.

The repository commits its compiled-kernel artifacts (``.repro_artifacts``
at the repo root, content-addressed over DFG/arch/mapper fingerprints).
Those bytes are the mapper's observable behaviour: II, placements, routes,
steady-state IIs, serialised canonically.  Any change to candidate
ordering, route tie-breaking, or search pruning that alters results shows
up here as a byte diff — which is exactly the check the integer-indexed
mapper rewrite had to pass, kept as a permanent test so future "harmless"
refactors can't silently change schedules.

Tier-1 recompiles only the sub-second 4x4 kernels.  Run as a script
(``python tests/test_recompile_bytes.py``, a CI step of its own) the file
cold-compiles *every* committed artifact — 11 kernels at page sizes {2,4}
on 4x4 and {2,4,8} on 6x6 and 8x8, 88 jobs fanned out over two worker
processes — and byte-compares each: the check a router or placer change
exists to pass.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

import pytest

from repro.compiler.search import SearchContext
from repro.pipeline.compile import CompileJob, compile_job, compile_many, job_key
from repro.pipeline.store import ArtifactStore

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"

FAST_JOBS = [
    CompileJob(kernel, 4, page_size)
    for kernel in ("mpeg", "sor", "gsr", "laplace", "wavelet")
    for page_size in (2, 4)
]


@pytest.mark.parametrize(
    "job", FAST_JOBS, ids=lambda j: f"{j.kernel}-ps{j.page_size}"
)
def test_cold_recompile_is_byte_identical(job, tmp_path):
    committed = ArtifactStore(REPO_STORE).path_for(job_key(job))
    if not committed.exists():
        pytest.skip(f"no committed artifact for {job.kernel} (store not present)")
    fresh = ArtifactStore(tmp_path / "store")
    compile_many([job], store=fresh)
    produced = fresh.path_for(job_key(job))
    assert produced.exists(), "cold compile did not write its artifact"
    assert produced.read_bytes() == committed.read_bytes(), (
        f"{job.kernel} ps={job.page_size}: recompiled artifact differs from "
        f"the committed store — the mapper's behaviour changed"
    )


@pytest.mark.parametrize("workers", [2, 4])
def test_speculative_recompile_is_byte_identical(workers, tmp_path):
    """Both parallel paths must reproduce the committed store bytes at any
    worker count: the batch fan-out (whole jobs in worker processes,
    ``compile_many``) and the raced executor the compile service hands to
    ``compile_job`` (out-of-order parallel probes with canonical reduction,
    :mod:`repro.compiler.search`)."""
    store = ArtifactStore(REPO_STORE)
    jobs = [j for j in FAST_JOBS if store.path_for(job_key(j)).exists()]
    if not jobs:
        pytest.skip("committed artifact store not present")
    fanned = ArtifactStore(tmp_path / "fanned")
    compile_many(jobs, store=fanned, workers=workers)
    raced = ArtifactStore(tmp_path / "raced")
    with SearchContext.create(workers) as ctx:
        for job in jobs:
            raced.put(compile_job(job, search=ctx)[0])
    for job in jobs:
        committed = store.path_for(job_key(job)).read_bytes()
        for how, fresh in (("fan-out", fanned), ("raced", raced)):
            assert fresh.path_for(job_key(job)).read_bytes() == committed, (
                f"{job.kernel} ps={job.page_size} @ workers={workers}: "
                f"{how} compile diverged from the serial artifact"
            )


def recompile_all() -> list[str]:
    """Cold-compile every job behind the committed store into a temporary
    one; the problems found (empty when every file is byte-identical and
    the two stores hold the same files)."""
    from repro.bench.fig8 import page_sizes_for
    from repro.kernels import kernel_names

    jobs = [
        CompileJob(kernel, size, page_size)
        for size in (4, 6, 8)
        for kernel in kernel_names()
        for page_size in page_sizes_for(size)
    ]
    committed = ArtifactStore(REPO_STORE)
    with tempfile.TemporaryDirectory(prefix="recompile-") as tmp:
        fresh = ArtifactStore(Path(tmp) / "store")
        compile_many(jobs, store=fresh, workers=2)
        problems = []
        for job in jobs:
            label = f"{job.kernel} {job.size}x{job.size} ps={job.page_size}"
            reference = committed.path_for(job_key(job))
            if not reference.exists():
                problems.append(f"{label}: no committed artifact")
            elif reference.read_bytes() != fresh.path_for(job_key(job)).read_bytes():
                problems.append(f"{label}: bytes differ from the committed artifact")
        produced = {path.relative_to(fresh.root) for path, _ in fresh.walk()}
        for path, _ in committed.walk():
            if path.relative_to(committed.root) not in produced:
                problems.append(f"{path.name}: committed, but no job compiles it")
    return problems


if __name__ == "__main__":  # spawned workers re-import this file: keep the guard
    found = recompile_all()
    print("\n".join(found) or "all committed artifacts recompile byte-identical")
    sys.exit(1 if found else 0)
