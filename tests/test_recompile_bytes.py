"""Regression: cold compilation reproduces the committed artifact bytes.

The repository commits compiled-kernel artifacts in two content-addressed
stores: ``.repro_artifacts/`` at the repo root, the 88 homogeneous flat
jobs behind the figures (11 kernels at page sizes {2,4} on 4x4 and {2,4,8}
on 6x6 and 8x8), and :data:`HIER_STORE`, the 22 jobs of ``perf/``'s
``compile_hier_8x8`` workload (the hier backend on ``8x8-memcols``, page
sizes {4,8}).  Those bytes are the mapper's observable behaviour: II,
placements, routes, steady-state IIs, serialised canonically.  Any change
to candidate ordering, route tie-breaking, or search pruning that alters
results shows up here as a byte diff — which is exactly the check the
integer-indexed mapper rewrite had to pass, kept as a permanent test so
future "harmless" refactors can't silently change schedules.

Tier-1 recompiles only the sub-second 4x4 kernels, and pins how much
search each one took (:data:`SEARCH_VOLUME`: its counters and its ladders'
probe rows), so a change that should only make a state cheaper cannot
visit other states and keep the bytes by luck.  Run as a script (``python
tests/test_recompile_bytes.py``, a CI step of its own) the file
cold-compiles all 110 jobs over two worker processes into a temporary
store and compares each file with its committed twin.  It prints one
:func:`diff_row` per job that differs — the fields that moved, old -> new
— and one per job with no committed file ("new") or committed file that
no job compiles ("orphaned"); every artifact must also store as its page
need the pages it touches (``test_feasibility.page_span_problems``).  It
then runs the placer's shortcut differential
(``test_compiler_units.mask_replay_differential``) and its cost-floor
differential (``test_compiler_units.floor_differential``) on all six
draws at mapper seeds 0-3 — tier-1 runs the three draws that climb
failing ladders at seed 0 only for the first, every draw but the flat
ring one at seed 0 only for the second.

A job compiled through a :class:`~repro.compiler.search.ProbeMemo` depends
on what earlier jobs left in it, so the script also compiles the 22
committed 4x4 jobs, the 22 hier jobs and the 64 jobs of ``perf/``'s serve
universe serially through one shared memo, in forward and in reversed job
order, and byte-compares each with its reference (the committed file, the
memo-less compile); tier-1 runs that on an eight-job slice.

``python tests/test_recompile_bytes.py --write`` re-pins, for a change
that means to move schedules or the search: the same cold compile, then
each differing, new or orphaned file is replaced, added or deleted in its
store, and the :data:`SEARCH_VOLUME` block here and ``GOLDEN`` in
``test_firing_golden.py`` are rewritten in place; it prints the same rows.
It refuses (exit 2) while ``git status`` shows uncommitted changes in
either store or either file.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import tempfile
import textwrap
import traceback
from pathlib import Path

import pytest

from repro.compiler.search import ProbeMemo
from repro.pipeline.compile import CompileJob, compile_job_stats, compile_many, job_key
from repro.pipeline.store import ArtifactStore

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_STORE = REPO_ROOT / ".repro_artifacts"
#: The 22 hier jobs' store (:func:`_hier_jobs`), a root of its own so that
#: the bench and the II-ceiling test read the flat jobs only.
HIER_STORE = Path(__file__).resolve().parent / "hier_artifacts"

FAST_JOBS = [
    CompileJob(kernel, 4, page_size)
    for kernel in ("mpeg", "sor", "gsr", "laplace", "wavelet")
    for page_size in (2, 4)
]


#: ``search_volume`` of each of :data:`FAST_JOBS`: the counters of its
#: compile and its ladders' probe rows, as :func:`render_search_volume`
#: writes them; ``--write`` re-records the table.
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


def render_search_volume(table) -> str:
    """*table* as the ``SEARCH_VOLUME = {...}`` block of this file."""

    def wrapped(value, indent: str) -> str:
        return textwrap.fill(
            repr(value), 88, initial_indent=indent, subsequent_indent=indent + " ",
            break_long_words=False, break_on_hyphens=False,
        ) + ","

    lines = ["SEARCH_VOLUME = {"]
    for job, (counts, ladders) in table.items():
        lines += [f"    {job!r}: (", wrapped(counts, " " * 8), "        ("]
        lines += [wrapped(ladder, " " * 12) for ladder in ladders]
        lines += ["        ),", "    ),"]
    return "\n".join(lines + ["}"]) + "\n"


def pinned_block(text: str, name: str) -> slice:
    """Where the ``name = {`` ... ``}`` block of a test file's *text* sits."""
    start = text.index(f"\n{name} = {{\n") + 1
    return slice(start, text.index("\n}\n", start) + 3)


def diff_row(label: str, digest: str, old: bytes | None, new: bytes | None) -> str | None:
    """How the artifact *new* differs from the committed *old* (None for a
    side with no file), as one line: the job, the first 12 hex of its key
    and each top-level field that changed; None when the bytes are equal."""
    if old == new:
        return None
    if old is None or new is None:
        return f"{label} {digest[:12]}: {'new' if old is None else 'orphaned'}"
    before, after = json.loads(old), json.loads(new)
    changes = []
    for field in sorted(before.keys() | after.keys()):
        if field not in after:
            changes.append(f"{field} removed")
        elif field not in before:
            changes.append(f"{field} added")
        elif before[field] == after[field]:
            continue
        elif field in ("placements", "routes"):
            changes.append(f"{field} moved")
        else:
            old_value, new_value = json.dumps(before[field]), json.dumps(after[field])
            changes.append(f"{field} {old_value} -> {new_value}")
    return f"{label} {digest[:12]}: {'; '.join(changes) or 'same fields, other bytes'}"


def test_diff_row_names_each_change():
    """One row per differing artifact, naming every field that moved."""
    path = next(path for path, artifact in ArtifactStore(HIER_STORE).walk() if artifact)
    old = path.read_bytes()
    payload = json.loads(old)
    ii = payload["ii_paged"]
    payload["ii_paged"] += 1
    payload["placements"][0][3] += 1
    del payload["steady_ii"]
    new = json.dumps(payload).encode()
    digest = path.stem
    assert diff_row("job", digest, old, old) is None
    assert diff_row("job", digest, old, new) == (
        f"job {digest[:12]}: ii_paged {ii} -> {ii + 1}; placements moved; steady_ii removed"
    )
    assert diff_row("job", digest, None, old) == f"job {digest[:12]}: new"
    assert diff_row("job", digest, old, None) == f"job {digest[:12]}: orphaned"


def test_pinned_tables_render_as_committed():
    """``--write`` rewrites :data:`SEARCH_VOLUME` and ``GOLDEN`` with what
    the renderers make of them; on the committed tables that is each
    file's own block, byte for byte, so ``--write`` on a clean tree writes
    nothing."""
    golden = _sibling("test_firing_golden")
    for path, name, block in (
        (Path(__file__), "SEARCH_VOLUME", render_search_volume(SEARCH_VOLUME)),
        (Path(golden.__file__), "GOLDEN", golden.render_golden(golden.GOLDEN)),
    ):
        text = path.read_text()
        assert text[pinned_block(text, name)] == block


def _sibling(name: str):
    """The module *name* of tests/: ``tests.<name>`` under pytest, plain
    ``<name>`` in script mode (tests/ is ``sys.path[0]`` there)."""
    return importlib.import_module(f"{__package__}.{name}" if __package__ else name)


def _hier_jobs() -> list[CompileJob]:
    """The 22 jobs of ``perf/``'s ``compile_hier_8x8``, committed in
    :data:`HIER_STORE`."""
    from repro.kernels import kernel_names

    return [
        CompileJob(kernel, 8, page_size, arch="8x8-memcols", backend="hier")
        for kernel in kernel_names()
        for page_size in (4, 8)
    ]


def committed_jobs() -> dict[Path, list[CompileJob]]:
    """Every job behind a committed artifact, by the store root holding it."""
    from repro.bench.fig8 import page_sizes_for
    from repro.kernels import kernel_names

    flat = [
        CompileJob(kernel, size, page_size)
        for size in (4, 6, 8)
        for kernel in kernel_names()
        for page_size in page_sizes_for(size)
    ]
    return {REPO_STORE: flat, HIER_STORE: _hier_jobs()}


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
    """The shared-memo pass on the 22 committed 4x4 jobs and the 22 hier
    jobs (against their committed files) and the 64 jobs of ``perf/``'s
    serve universe (against the memo-less compile of each)."""
    from repro.kernels import kernel_names

    def committed(root):
        store = ArtifactStore(root)
        return lambda job, data: data == store.path_for(job_key(job)).read_bytes()

    flat = [CompileJob(k, 4, ps) for k in kernel_names() for ps in (2, 4)]
    serve = [
        CompileJob(k, 4, ps, seed=seed)
        for k in ("mpeg", "sor", "compress", "gsr", "laplace", "lowpass", "swim", "wavelet")
        for ps in (2, 4)
        for seed in range(4)
    ]
    memoless = {job: _memoless(job) for job in serve}
    return (
        shared_memo_problems(flat, committed(REPO_STORE))
        + shared_memo_problems(_hier_jobs(), committed(HIER_STORE))
        + shared_memo_problems(serve, lambda job, data: data == memoless[job])
    )


def recompile(write: bool = False) -> tuple[list[str], list[str]]:
    """Cold-compile every committed job into a temporary store over two
    worker processes: ``(rows, problems)``, one :func:`diff_row` per job
    or committed file that differs, and each stored page need that is not
    the mapping's span.  With *write*, each differing, new or orphaned file
    is replaced, added or deleted in its store."""
    stores = committed_jobs()
    rows = []
    with tempfile.TemporaryDirectory(prefix="recompile-") as tmp:
        fresh = ArtifactStore(tmp)
        everything = [job for jobs in stores.values() for job in jobs]
        compile_many(everything, store=fresh, workers=2)
        problems = _sibling("test_feasibility").page_span_problems(fresh.root)
        for root, jobs in stores.items():
            committed = ArtifactStore(root)
            compiled = {}
            for job in jobs:
                key = job_key(job)
                arch = job.arch or f"{job.size}x{job.size}"
                label = f"{job.kernel} {arch} {job.backend} ps{job.page_size}"
                compiled[committed.path_for(key)] = label, fresh.path_for(key).read_bytes()
            orphans = {
                path: (root.relative_to(REPO_ROOT).as_posix(), None)
                for path, _ in committed.walk()
                if path not in compiled
            }
            for path, (label, new) in {**compiled, **orphans}.items():
                old = path.read_bytes() if path.exists() else None
                row = diff_row(label, path.stem, old, new)
                if row is None:
                    continue
                rows.append(row)
                if write and new is None:
                    path.unlink()
                    if not any(path.parent.iterdir()):
                        path.parent.rmdir()
                elif write:
                    path.parent.mkdir(parents=True, exist_ok=True)
                    path.write_bytes(new)
    return rows, problems


def differential_all() -> list[str]:
    """The mask/replay and the cost-floor differentials on every draw at
    mapper seeds 0-3."""
    units = _sibling("test_compiler_units")

    def floor_leg(backend, outcome, mapper_seeds):
        kernel, jobs = units.draw_jobs(backend, outcome, mapper_seeds)
        units.floor_differential(jobs, kernel)

    problems = []
    for backend, outcome in sorted(units.MASK_DRAWS):
        for name, check in (
            ("mask/replay", units.mask_replay_differential),
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


def write() -> int:
    """Re-pin: the committed stores, :data:`SEARCH_VOLUME` and ``GOLDEN``
    become what this tree compiles; 2 if any of them has uncommitted
    changes."""
    golden = _sibling("test_firing_golden")
    pinned = [REPO_STORE, HIER_STORE, Path(__file__), Path(golden.__file__)]
    status = subprocess.run(
        ["git", "status", "--porcelain", "--untracked-files=all", "--", *pinned],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if status.returncode or status.stdout:
        dirty = status.stderr.strip() or "\n  ".join(status.stdout.splitlines())
        print(f"--write refused, uncommitted changes:\n  {dirty}", file=sys.stderr)
        return 2
    rows, problems = recompile(write=True)
    volume = {
        (job.kernel, job.page_size): search_volume(compile_job_stats(job)[1])
        for job in FAST_JOBS
    }
    for path, name, block in (
        (Path(__file__), "SEARCH_VOLUME", render_search_volume(volume)),
        # after the stores: the digests fold the 4x4 artifacts just written
        (Path(golden.__file__), "GOLDEN", golden.render_golden(golden.compute_digests())),
    ):
        text = path.read_text()
        where = pinned_block(text, name)
        if text[where] != block:
            path.write_text(text[: where.start] + block + text[where.stop :])
            rows.append(f"{name} rewritten in {path.relative_to(REPO_ROOT)}")
    print("\n".join(rows + problems) or "nothing to write: every pin is current")
    return 1 if problems else 0


if __name__ == "__main__":  # spawned workers re-import this file: keep the guard
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true",
        help="re-pin the committed stores, SEARCH_VOLUME and GOLDEN from this tree",
    )
    if parser.parse_args().write:
        sys.exit(write())
    rows, problems = recompile()
    problems += shared_memo_all() + differential_all()
    jobs = committed_jobs()
    print(
        "\n".join(rows + problems)
        or f"{sum(map(len, jobs.values()))} jobs byte-identical "
        f"({len(jobs[REPO_STORE])} committed, {len(jobs[HIER_STORE])} hier), "
        "pooled and through a shared probe memo in both job orders (the 64 serve "
        "jobs: with and without the memo); "
        "mask/replay and cost-floor differentials clean on 6 draws x 4 mapper seeds"
    )
    sys.exit(1 if rows or problems else 0)
