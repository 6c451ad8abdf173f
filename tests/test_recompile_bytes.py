"""Regression: cold compilation reproduces the committed artifact store.

The repository commits its compiled-kernel artifacts (``.repro_artifacts``
at the repo root, content-addressed over DFG/arch/mapper fingerprints).
Those bytes are the mapper's observable behaviour: II, placements, routes,
steady-state IIs, serialised canonically.  Any change to candidate
ordering, route tie-breaking, or search pruning that alters results shows
up here as a byte diff — which is exactly the check the integer-indexed
mapper rewrite had to pass, kept as a permanent test so future "harmless"
refactors can't silently change schedules.

Only the sub-second kernels are recompiled (the full 4x4 suite, sobel and
fft included, is cold-compiled and byte-compared by ``perf/``'s
``compile_flat_4x4`` workload).
"""

from __future__ import annotations

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
