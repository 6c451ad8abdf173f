"""Regression: cold compilation reproduces the committed artifact store.

The repository commits its compiled-kernel artifacts (``.repro_artifacts``
at the repo root, content-addressed over DFG/arch/mapper fingerprints).
Those bytes are the mapper's observable behaviour: II, placements, routes,
steady-state IIs, serialised canonically.  Any change to candidate
ordering, route tie-breaking, or search pruning that alters results shows
up here as a byte diff — which is exactly the check the integer-indexed
mapper rewrite had to pass, kept as a permanent test so future "harmless"
refactors can't silently change schedules.

Tier-1 recompiles only the sub-second 4x4 kernels, and pins how much
search each one took (:data:`SEARCH_VOLUME`: its counters and its ladders'
probe rows), so a change that should only make a state cheaper cannot
visit other states and keep the bytes by luck; ``python
tests/test_recompile_bytes.py search-volume`` prints that table.  Run as a
script (``python tests/test_recompile_bytes.py``, a CI step of its own) the file
cold-compiles *every* committed artifact — 11 kernels at page sizes {2,4}
on 4x4 and {2,4,8} on 6x6 and 8x8, 88 jobs fanned out over two worker
processes — and byte-compares each: the check a router or placer change
exists to pass.  The committed store holds homogeneous flat jobs only, so
the same run also compiles the 22 jobs of ``perf/``'s ``compile_hier_8x8``
workload (the hier backend on ``8x8-memcols``, page sizes {4,8}) and
compares each artifact's sha256 with :data:`HIER_SHA256`; every artifact of
both sets must store as its page need the pages it touches
(``test_feasibility.page_span_problems``).  It then runs the placer's
shortcut differential (``test_compiler_units.mask_replay_differential``)
and its cost-floor differential (``test_compiler_units.floor_differential``)
on all six draws at mapper seeds 0-3 — tier-1 runs the three draws that
climb failing ladders at seed 0 only for the first, every draw but the
flat ring one at seed 0 only for the second.

A job compiled through a :class:`~repro.compiler.search.ProbeMemo` depends
on what earlier jobs left in it, so the script also compiles the 22
committed 4x4 jobs, the 22 pinned hier jobs and the 64 jobs of ``perf/``'s
serve universe serially through one shared memo, in forward and in
reversed job order, and byte-compares each with its reference (the
committed store, :data:`HIER_SHA256`, the memo-less compile); tier-1 runs
that on an eight-job slice.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import traceback
from pathlib import Path

import pytest

from repro.compiler.search import ProbeMemo
from repro.pipeline.compile import CompileJob, compile_job_stats, compile_many, job_key
from repro.pipeline.store import ArtifactStore

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"

FAST_JOBS = [
    CompileJob(kernel, 4, page_size)
    for kernel in ("mpeg", "sor", "gsr", "laplace", "wavelet")
    for page_size in (2, 4)
]


#: sha256 of the artifact file of ``CompileJob(kernel, 8, page_size, seed=0,
#: arch="8x8-memcols", backend="hier")``, recorded at 0de780d (the parent of
#: the candidate-mask change); fft, laplace, lowpass and sobel at ps4 and
#: swim at ps8 re-recorded when the page plan was anchored at page 0.
#: Re-record only with a change that means to alter hier schedules.
HIER_SHA256 = {
    ("mpeg", 4): "60bd336dc1d735eb39d47749e2904dbb8b3f207d2fc109c9410e7443ec2c0a17",
    ("mpeg", 8): "1955cb39c108d42005bc7bc2e91a0332c15d2cf9401fed3e618834c9297a1c41",
    ("yuv2rgb", 4): "6cee6443cbbec421b27cb68b37f8096afe4fdd848d7f910428b8791a33bfd791",
    ("yuv2rgb", 8): "ac9c86fddb4ef3d63e72c7f16ca224e703ced3d6ffbd1dae4efffb806e42e123",
    ("sor", 4): "c64515278b713bd09294bf3aaec7a44145b9e9db866ad8f82c4c58468b33aa18",
    ("sor", 8): "936247b7da60e1d246152cb15bf265ff4676b336332bbe471d17114a5eb7bd98",
    ("compress", 4): "632c5f69e79ebd78c63cedced2d16905a3e238f21a239a4e038df5c01fca165b",
    ("compress", 8): "0af89cd2734016e41935323744102c86858d21559894aabf45f9d66d06ac3e9d",
    ("gsr", 4): "881bef9e92fcd15cadae7dc16989901bf3e10ac6adb6e3a97a2f8150bb273ad7",
    ("gsr", 8): "d5eb4b82c097f8b0a9771f3f735f5dff21653c4598a96c7b318c48e23ec5b3bd",
    ("laplace", 4): "820503dad98aef52cc51f586ef584a2ae13550e0fc2ad3d10e15dc6dd7492978",
    ("laplace", 8): "885be19f26afe911fe3e43bd33e3832d88ae1f3995cc5669ad27cfe81c201bd1",
    ("lowpass", 4): "20035f145eb9c09b38662b861c74e5f8f3cd21be9637c76e31e85d32d9ff47e8",
    ("lowpass", 8): "cac838efbaf1fd0a70e503d4257551c0315859d4409b1c921cd9a1aabc3f0d62",
    ("swim", 4): "5a729917e2aa7f88f799a1a1ae07918b9560535ca50d8df3c7da7a3292588246",
    ("swim", 8): "2767f132c0dd0acdfc09a6e989bed5227200e5495901db56f7a444ae50ddd1b8",
    ("sobel", 4): "dae6346142913c1eea2d2f261f9ba68e93e4ce931e2b022d201c12cbd7422e3c",
    ("sobel", 8): "cbd2a939ebb34db40ac8a73f3b85b766b4e02ba60d265e85ae553923efb4dcf6",
    ("wavelet", 4): "6b74d91b46c69cdbb1ca0d0d126e059f8ae9f70001ca7845cfc849e46a7343bc",
    ("wavelet", 8): "64cb654155967b368c6aad4611ed20cd2242f4630c484efb642f892a7be737c2",
    ("fft", 4): "09a48cdabb7e7722cb0200c5672e559c83732e7e4e8bbe106e5d3cbd70c6f5f4",
    ("fft", 8): "4056024ea50baefd53f1f5424df5cbdda147378612ba58e67ac89fb4a9877ca8",
}


#: ``search_volume`` of each of :data:`FAST_JOBS`: the counters of its
#: compile and its ladders' probe rows, recorded at 1cd9817 (before the
#: router's shift-mask frontier hops).  ``python tests/test_recompile_bytes.py
#: search-volume`` prints the table again; re-record it only with a change
#: that means to move the search.
SEARCH_VOLUME = {
    ('mpeg', 2): (
        {'bfs_calls': 0, 'dfs_calls': 280, 'expansions': 1273, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 2986, 'probes_run': 14, 'probes_shared': 0, 'route_calls':
         585, 'routes_refuted': 240, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 2214, 'trials_refuted': 1435},
        (
            ((1, 0, 'success', None),),
            ((1, 0, 'success', None),),
            ((1, 0, 'fail', (5, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'fail', (3, 'no-slot')), (1, 3, 'fail', (8, 'no-slot'))),
            ((1, 0, 'fail', (3, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'fail', (3, 'no-slot')), (1, 3, 'fail', (8, 'no-slot'))),
            ((1, 0, 'fail', (3, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'fail', (3, 'no-slot')), (1, 3, 'fail', (8, 'no-slot'))),
        ),
    ),
    ('mpeg', 4): (
        {'bfs_calls': 0, 'dfs_calls': 159, 'expansions': 466, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 1749, 'probes_run': 7, 'probes_shared': 0, 'route_calls':
         350, 'routes_refuted': 121, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 1192, 'trials_refuted': 720},
        (
            ((1, 0, 'success', None),),
            ((1, 0, 'fail', (3, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'success', None)),
            ((1, 0, 'fail', (3, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'success', None)),
        ),
    ),
    ('sor', 2): (
        {'bfs_calls': 88, 'dfs_calls': 40, 'expansions': 367, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 471, 'probes_run': 10, 'probes_shared': 0, 'route_calls':
         169, 'routes_refuted': 1, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 363, 'trials_refuted': 185},
        (
            ((4, 0, 'success', None),),
            ((4, 0, 'success', None),),
            ((4, 0, 'fail', (3, 'no-slot')), (4, 1, 'fail', (3, 'no-slot')), (4, 2,
             'fail', (3, 'no-slot')), (4, 3, 'fail', (3, 'no-slot'))),
            ((4, 0, 'fail', (0, 'no-slot')), (4, 1, 'fail', (4, 'no-slot')), (4, 2,
             'fail', (6, 'no-slot')), (4, 3, 'fail', (0, 'no-slot'))),
        ),
    ),
    ('sor', 4): (
        {'bfs_calls': 40, 'dfs_calls': 24, 'expansions': 184, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 127, 'probes_run': 3, 'probes_shared': 0, 'route_calls':
         85, 'routes_refuted': 0, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 103, 'trials_refuted': 18},
        (
            ((4, 0, 'success', None),),
            ((4, 0, 'success', None),),
            ((4, 0, 'success', None),),
        ),
    ),
    ('gsr', 2): (
        {'bfs_calls': 144, 'dfs_calls': 50, 'expansions': 529, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 696, 'probes_run': 15, 'probes_shared': 0, 'route_calls':
         280, 'routes_refuted': 2, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 538, 'trials_refuted': 225},
        (
            ((4, 0, 'success', None),),
            ((4, 0, 'fail', (0, 'no-slot')), (4, 1, 'success', None)),
            ((4, 0, 'fail', (5, 'no-slot')), (4, 1, 'fail', (4, 'no-slot')), (4, 2,
             'fail', (9, 'no-slot')), (4, 3, 'fail', (6, 'window'))),
            ((4, 0, 'fail', (0, 'no-slot')), (4, 1, 'fail', (6, 'no-slot')), (4, 2,
             'fail', (0, 'no-slot')), (4, 3, 'fail', (6, 'window'))),
            ((4, 0, 'fail', (0, 'no-slot')), (4, 1, 'fail', (8, 'no-slot')), (4, 2,
             'fail', (0, 'no-slot')), (4, 3, 'fail', (6, 'window'))),
        ),
    ),
    ('gsr', 4): (
        {'bfs_calls': 50, 'dfs_calls': 26, 'expansions': 260, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 152, 'probes_run': 3, 'probes_shared': 0, 'route_calls':
         102, 'routes_refuted': 0, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 125, 'trials_refuted': 23},
        (
            ((4, 0, 'success', None),),
            ((4, 0, 'success', None),),
            ((4, 0, 'success', None),),
        ),
    ),
    ('laplace', 2): (
        {'bfs_calls': 27, 'dfs_calls': 194, 'expansions': 657, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 2249, 'probes_run': 17, 'probes_shared': 0, 'route_calls':
         400, 'routes_refuted': 91, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 1626, 'trials_refuted': 1075},
        (
            ((1, 0, 'fail', (2, 'no-slot')), (1, 1, 'fail', (5, 'no-slot')), (1, 2,
             'fail', (5, 'no-slot')), (1, 3, 'fail', (2, 'no-slot')), (2, 0, 'fail', (1,
             'no-slot')), (2, 1, 'success', None)),
            ((1, 0, 'fail', (1, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'fail', (3, 'no-slot')), (1, 3, 'fail', (1, 'no-slot')), (2, 0, 'success',
             None)),
            ((2, 0, 'fail', (3, 'no-slot')), (2, 1, 'fail', (6, 'no-slot')), (2, 2,
             'fail', (6, 'no-slot')), (2, 3, 'fail', (3, 'no-slot'))),
            ((2, 0, 'fail', (3, 'no-slot')), (2, 1, 'success', None)),
        ),
    ),
    ('laplace', 4): (
        {'bfs_calls': 0, 'dfs_calls': 204, 'expansions': 592, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 1907, 'probes_run': 12, 'probes_shared': 0, 'route_calls':
         368, 'routes_refuted': 103, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 1306, 'trials_refuted': 764},
        (
            ((1, 0, 'fail', (2, 'no-slot')), (1, 1, 'fail', (5, 'no-slot')), (1, 2,
             'fail', (5, 'no-slot')), (1, 3, 'fail', (2, 'no-slot')), (2, 0, 'fail', (1,
             'no-slot')), (2, 1, 'success', None)),
            ((1, 0, 'success', None),),
            ((1, 0, 'fail', (3, 'no-slot')), (1, 1, 'fail', (3, 'no-slot')), (1, 2,
             'fail', (3, 'no-slot')), (1, 3, 'fail', (3, 'no-slot'))),
            ((1, 0, 'success', None),),
        ),
    ),
    ('wavelet', 2): (
        {'bfs_calls': 11, 'dfs_calls': 97, 'expansions': 369, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 1100, 'probes_run': 9, 'probes_shared': 0, 'route_calls':
         219, 'routes_refuted': 68, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 885, 'trials_refuted': 569},
        (
            ((1, 0, 'fail', (2, 'no-slot')), (1, 1, 'success', None)),
            ((1, 0, 'fail', (2, 'no-slot')), (1, 1, 'fail', (2, 'no-slot')), (1, 2,
             'fail', (2, 'no-slot')), (1, 3, 'fail', (2, 'no-slot')), (2, 0, 'success',
             None)),
            ((2, 0, 'fail', (5, 'no-slot')), (2, 1, 'success', None)),
        ),
    ),
    ('wavelet', 4): (
        {'bfs_calls': 2, 'dfs_calls': 61, 'expansions': 197, 'hier_attempts': 0,
         'hier_flat_attempts': 0, 'hier_flat_wins': 0, 'hier_wins': 0,
         'placement_probes': 996, 'probes_run': 8, 'probes_shared': 0, 'route_calls':
         144, 'routes_refuted': 34, 'rungs_pruned': 0, 'rungs_skipped': 0,
         'trial_commits': 776, 'trials_refuted': 518},
        (
            ((1, 0, 'fail', (2, 'no-slot')), (1, 1, 'success', None)),
            ((1, 0, 'fail', (5, 'no-slot')), (1, 1, 'fail', (5, 'no-slot')), (1, 2,
             'fail', (5, 'no-slot')), (1, 3, 'fail', (5, 'no-slot')), (2, 0, 'fail', (1,
             'no-slot')), (2, 1, 'success', None)),
        ),
    ),
}


@pytest.mark.parametrize(
    "job", FAST_JOBS, ids=lambda j: f"{j.kernel}-ps{j.page_size}"
)
def test_cold_recompile_is_byte_identical(job, tmp_path):
    """Same bytes as the committed artifact, and the same search to get
    there: the job's counters and every ladder's probe rows equal
    :data:`SEARCH_VOLUME`, so a change meant to make the search cheaper per
    state cannot quietly visit other states."""
    committed = ArtifactStore(REPO_STORE).path_for(job_key(job))
    if not committed.exists():
        pytest.skip(f"no committed artifact for {job.kernel} (store not present)")
    fresh = ArtifactStore(tmp_path / "store")
    artifact, stats = compile_job_stats(job)
    fresh.put(artifact)
    produced = fresh.path_for(job_key(job))
    assert produced.exists(), "cold compile did not write its artifact"
    assert produced.read_bytes() == committed.read_bytes(), (
        f"{job.kernel} ps={job.page_size}: recompiled artifact differs from "
        f"the committed store — the mapper's behaviour changed"
    )
    assert search_volume(stats) == SEARCH_VOLUME[job.kernel, job.page_size]


def search_volume(stats) -> tuple:
    """``(counters, ladders)`` of a compile: its counters, and per ladder
    its ``(ii, attempt, outcome, stuck)`` probe rows."""
    return dict(sorted(stats.counters.items())), tuple(
        tuple((ii, attempt, outcome, stuck) for ii, attempt, outcome, _, stuck in r.timeline)
        for r in stats.ladders
    )


@pytest.mark.parametrize("workers", [2])
def test_speculative_recompile_is_byte_identical(workers, tmp_path):
    """The batch fan-out (whole jobs in worker processes, ``compile_many``)
    must reproduce the committed store bytes."""
    store = ArtifactStore(REPO_STORE)
    jobs = [j for j in FAST_JOBS if store.path_for(job_key(j)).exists()]
    if not jobs:
        pytest.skip("committed artifact store not present")
    fanned = ArtifactStore(tmp_path / "fanned")
    compile_many(jobs, store=fanned, workers=workers)
    for job in jobs:
        committed = store.path_for(job_key(job)).read_bytes()
        assert fanned.path_for(job_key(job)).read_bytes() == committed, (
            f"{job.kernel} ps={job.page_size} @ workers={workers}: "
            f"fan-out compile diverged from the serial artifact"
        )


def _hier_jobs() -> list[CompileJob]:
    """The 22 jobs of ``perf/``'s ``compile_hier_8x8``, pinned in
    :data:`HIER_SHA256`."""
    from repro.kernels import kernel_names

    return [
        CompileJob(kernel, 8, page_size, arch="8x8-memcols", backend="hier")
        for kernel in kernel_names()
        for page_size in (4, 8)
    ]


def shared_memo_problems(jobs, matches) -> list[str]:
    """Compile *jobs* serially through one shared memo, in the order given
    and then reversed through another: ``matches(job, bytes)`` must hold
    for every artifact whatever the jobs before it left behind, and each
    pass must have shared something."""
    problems = []
    for direction, ordered in (("forward", jobs), ("reversed", jobs[::-1])):
        memo = ProbeMemo()
        shared = 0
        for job in ordered:
            artifact, stats = compile_job_stats(job, memo=memo)
            shared += stats.counters["probes_shared"]
            if not matches(job, artifact.to_json().encode()):
                problems.append(
                    f"{job.kernel} {job.arch or job.size} {job.backend} "
                    f"ps={job.page_size} seed={job.seed}: bytes through a shared "
                    f"memo ({direction} order) differ from the reference"
                )
        if not shared:
            problems.append(f"{direction} pass of {len(jobs)} jobs shared no probe")
    return problems


def _memoless(job) -> bytes:
    return compile_job_stats(job)[0].to_json().encode()


def test_shared_memo_compile_is_byte_identical():
    """The tier-1 slice of the script's shared-memo pass: two kernels at
    both page sizes and two mapper seeds — the baseline ladder shared
    across page sizes, attempts 0-2 across seeds — in both job orders."""
    jobs = [
        CompileJob(kernel, 4, page_size, seed=seed)
        for kernel in ("mpeg", "sor")
        for page_size in (2, 4)
        for seed in (0, 1)
    ]
    memoless = {job: _memoless(job) for job in jobs}
    assert shared_memo_problems(jobs, lambda job, data: data == memoless[job]) == []


def shared_memo_all() -> list[str]:
    """The shared-memo pass on the 22 committed 4x4 jobs (against the
    committed store), the 22 pinned hier jobs (against their sha256) and
    the 64 jobs of ``perf/``'s serve universe (against the memo-less
    compile of each)."""
    from repro.kernels import kernel_names

    committed = ArtifactStore(REPO_STORE)
    flat = [CompileJob(k, 4, ps) for k in kernel_names() for ps in (2, 4)]
    serve = [
        CompileJob(k, 4, ps, seed=seed)
        for k in ("mpeg", "sor", "compress", "gsr", "laplace", "lowpass", "swim", "wavelet")
        for ps in (2, 4)
        for seed in range(4)
    ]
    memoless = {job: _memoless(job) for job in serve}
    return (
        shared_memo_problems(
            flat, lambda job, data: data == committed.path_for(job_key(job)).read_bytes()
        )
        + shared_memo_problems(
            _hier_jobs(),
            lambda job, data: hashlib.sha256(data).hexdigest()
            == HIER_SHA256[job.kernel, job.page_size],
        )
        + shared_memo_problems(serve, lambda job, data: data == memoless[job])
    )


def recompile_all() -> list[str]:
    """Cold-compile every job behind the committed store, and the pinned
    hier jobs, into a temporary store; the problems found (empty when every
    file is byte-identical to its reference, every committed file was
    produced and every stored page need is the mapping's own span)."""
    from repro.bench.fig8 import page_sizes_for
    from repro.kernels import kernel_names

    jobs = [
        CompileJob(kernel, size, page_size)
        for size in (4, 6, 8)
        for kernel in kernel_names()
        for page_size in page_sizes_for(size)
    ]
    hier_jobs = _hier_jobs()
    committed = ArtifactStore(REPO_STORE)
    with tempfile.TemporaryDirectory(prefix="recompile-") as tmp:
        fresh = ArtifactStore(Path(tmp) / "store")
        compile_many(jobs + hier_jobs, store=fresh, workers=2)
        problems = []
        for job in hier_jobs:
            produced = fresh.path_for(job_key(job)).read_bytes()
            pinned = HIER_SHA256.get((job.kernel, job.page_size))
            if hashlib.sha256(produced).hexdigest() != pinned:
                problems.append(
                    f"{job.kernel} 8x8-memcols hier ps={job.page_size}: "
                    f"sha256 differs from the pinned {pinned}"
                )
        for job in jobs:
            label = f"{job.kernel} {job.size}x{job.size} ps={job.page_size}"
            reference = committed.path_for(job_key(job))
            if not reference.exists():
                problems.append(f"{label}: no committed artifact")
            elif reference.read_bytes() != fresh.path_for(job_key(job)).read_bytes():
                problems.append(f"{label}: bytes differ from the committed artifact")
        # script mode only: tests/ is sys.path[0] there
        from test_feasibility import page_span_problems

        problems += page_span_problems(fresh.root)
        produced = {path.relative_to(fresh.root) for path, _ in fresh.walk()}
        for path, _ in committed.walk():
            if path.relative_to(committed.root) not in produced:
                problems.append(f"{path.name}: committed, but no job compiles it")
    return problems


def differential_all() -> list[str]:
    """The mask/replay and the cost-floor differentials on every draw at
    mapper seeds 0-3."""
    # script mode only: tests/ is sys.path[0] there
    from test_compiler_units import (
        MASK_DRAWS,
        draw_jobs,
        floor_differential,
        mask_replay_differential,
    )

    def floor_leg(backend, outcome, mapper_seeds):
        kernel, jobs = draw_jobs(backend, outcome, mapper_seeds)
        floor_differential(jobs, kernel)

    problems = []
    for backend, outcome in sorted(MASK_DRAWS):
        for name, check in (
            ("mask/replay", mask_replay_differential),
            ("cost floor", floor_leg),
        ):
            try:
                check(backend, outcome, range(4))
            except AssertionError as exc:
                # plain asserts carry no message outside pytest: name the line
                at = traceback.extract_tb(exc.__traceback__)[-1]
                problems.append(
                    f"{name} differential {backend}-{outcome}: "
                    f"line {at.lineno}: {at.line}"
                )
    return problems


if __name__ == "__main__" and sys.argv[1:] == ["search-volume"]:
    # re-record SEARCH_VOLUME, only with a change that means to move the search
    import textwrap

    def wrapped(value, indent: str) -> str:
        return textwrap.fill(
            repr(value), 88, initial_indent=indent, subsequent_indent=indent + " ",
            break_long_words=False, break_on_hyphens=False,
        ) + ","

    print("SEARCH_VOLUME = {")
    for job in FAST_JOBS:
        counts, ladders = search_volume(compile_job_stats(job)[1])
        print(f"    {(job.kernel, job.page_size)!r}: (")
        print(wrapped(counts, " " * 8))
        print("        (")
        print("\n".join(wrapped(ladder, " " * 12) for ladder in ladders))
        print("        ),")
        print("    ),")
    print("}")
elif __name__ == "__main__":  # spawned workers re-import this file: keep the guard
    found = recompile_all() + shared_memo_all() + differential_all()
    print(
        "\n".join(found)
        or "all committed artifacts and pinned hier jobs recompile byte-identical, "
        "pooled and through a shared probe memo in both job orders (the 64 serve "
        "jobs: with and without the memo); "
        "mask/replay and cost-floor differentials clean on 6 draws x 4 mapper seeds"
    )
    sys.exit(1 if found else 0)
