"""The compilation front door: jobs in, artifacts out, cache in between.

Everything in the repository that needs a compiled kernel — the figure
benches, the system simulator, the examples, the guided demo — goes through
:func:`compile_kernel` / :func:`compile_many`.  A job names *what* to
compile (kernel, grid size, page size, seed); the pipeline fingerprints the
job's DFG, architecture and mapper configuration, consults the
:class:`~repro.pipeline.store.ArtifactStore`, and only invokes the mapper
on a genuine miss.

Every mapping ladder of a job is one :func:`repro.compiler.search.
climb_ladder` call, a serial walk.  A batch is N independent compiles (the
paper's §III: mapping happens offline, once per kernel), so a kernel job
is the one grain of parallel compile work: ``compile_many`` with
``workers > 1`` fans **whole jobs** out over a spawned
``ProcessPoolExecutor`` — each worker process runs :func:`compile_job`
exactly as ``workers=1`` does and the parent stores the results in input
order, which is why the artifacts are byte-identical at any worker count —
and ``repro.serve --workers N`` hands each miss to the same worker entry
point, :func:`_job_outcome_pooled` (DESIGN.md §7 has the measurements).

Jobs that share a kernel share probes — the whole-array ladder reads no
page size, and no ladder reads the mapper seed before its fourth attempt —
so whoever compiles many jobs in one process hands each the same
:class:`~repro.compiler.search.ProbeMemo` (``memo=``): the serial path of
a batch holds one, a ``workers=1`` service holds one; a pooled job gets
none, its worker process has no owner to keep one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from repro.arch.cgra import CGRA
from repro.arch.presets import experiment_cgra, preset
from repro.compiler.check import validate_mapping
from repro.compiler.ems import MapperConfig, map_dfg
from repro.compiler.paged import map_dfg_paged
from repro.compiler.search import LadderReport, ProbeMemo
from repro.core.pagemaster import steady_state_ii
from repro.core.paging import PageLayout, choose_page_shape
from repro.kernels import get_kernel, kernel_names
from repro.pipeline.artifact import ArtifactKey, CompiledKernel
from repro.pipeline.store import ArtifactStore
from repro.util.errors import LadderExhausted, MappingError
from repro.util.fingerprint import canonical_fingerprint
from repro.util.spans import absorb, collecting, span

__all__ = [
    "CompileJob",
    "CompileStats",
    "CompileFailure",
    "job_key",
    "compile_job",
    "compile_job_stats",
    "compile_kernel",
    "compile_many",
    "compile_many_outcomes",
    "build_profiles",
    "make_layout",
]


def make_layout(cgra: CGRA, page_size: int) -> PageLayout:
    """Standard page layout for the experiments: the most square tile of
    *page_size* PEs that fits (Fig. 4 uses 2x2 for size 4).  Built once per
    fabric object and page size and kept on the fabric
    (:attr:`~repro.arch.cgra.CGRA.layouts`), so on a shared preset every
    job and ladder gets the same layout, its sub-chains, its ring and the
    routing tables of each."""
    layouts = cgra.layouts
    layout = layouts.get(page_size)
    if layout is None:
        shape = choose_page_shape(page_size, cgra.rows, cgra.cols)
        layout = layouts.setdefault(page_size, PageLayout(cgra, shape))
    return layout


@dataclass(frozen=True)
class CompileJob:
    """One unit of compilation work: a suite kernel on one configuration.

    ``mapper`` overrides the mapper tuning; by default the experiments'
    standard configuration (seeded, 4 attempts per II) is derived from
    ``seed``.  Jobs are hashable (dedup) and picklable (process fan-out).

    ``arch`` selects a named fabric preset (:func:`repro.arch.presets.
    preset` — e.g. ``"8x8-memcols"`` for the memory-capable-columns
    heterogeneous fabric); by default the job builds the homogeneous
    ``size`` x ``size`` grid, which is fingerprint-identical to the
    ``"{size}x{size}"`` preset.  ``backend`` picks the paged mapping
    strategy (one of :data:`repro.compiler.ems.BACKENDS`) when ``mapper``
    is not given.
    """

    kernel: str
    size: int
    page_size: int
    seed: int = 0
    mapper: MapperConfig | None = None
    arch: str | None = None
    backend: str = "flat"

    @property
    def mapper_config(self) -> MapperConfig:
        return self.mapper or MapperConfig(
            seed=self.seed, attempts_per_ii=4, backend=self.backend
        )

    @span("arch.build")
    def build_cgra(self) -> CGRA:
        if self.arch is not None:
            cgra = preset(self.arch)
            if (cgra.rows, cgra.cols) != (self.size, self.size):
                raise MappingError(
                    f"preset {self.arch!r} is {cgra.rows}x{cgra.cols}, "
                    f"but the job says size={self.size}"
                )
            return cgra
        return experiment_cgra(self.size)


@dataclass(frozen=True)
class CompileStats:
    """The whole telemetry of one uncached compilation, as a return value:
    what the job's own :func:`~repro.util.spans.collecting` scope received.

    ``counters`` is its :class:`~repro.util.spans.MapperCounters` as a
    dict (route-search expansions, BFS/DFS invocations, placement probes,
    refuted routes/trials); ``ladders`` one :class:`~repro.compiler.search.
    LadderReport` per ladder climbed — the (II, attempt) outcome timeline,
    each failed probe with the op it died on; ``spans`` its ``(name,
    start, end)`` spans, the last of them the job's ``pipeline.compile_job``.
    Picklable, so a worker process sends it back with the artifact.
    """

    counters: dict[str, int]
    ladders: tuple[LadderReport, ...] = ()
    spans: tuple[tuple[str, float, float], ...] = ()

    @property
    def seconds(self) -> float:
        """The whole job's wall clock: kernel build, fabric, both ladders,
        validation and the artifact (its ``pipeline.compile_job`` span)."""
        _name, start, end = self.spans[-1]
        return end - start


@span("pipeline.job_key")
def job_key(job: CompileJob, dfg=None, cgra=None) -> ArtifactKey:
    """Content address of *job*: structural DFG hash, architecture hash
    (grid plus page geometry), mapper-configuration hash.  *dfg* / *cgra*
    are the job's DFG and fabric where the caller has built them already."""
    if dfg is None:
        dfg = get_kernel(job.kernel).build()
    if cgra is None:
        cgra = job.build_cgra()
    shape = choose_page_shape(job.page_size, cgra.rows, cgra.cols)
    arch_fp = canonical_fingerprint(
        {"cgra": cgra.fingerprint(), "page_shape": list(shape)}
    )
    return ArtifactKey(dfg.fingerprint(), arch_fp, job.mapper_config.fingerprint())


def compile_job(
    job: CompileJob, memo: ProbeMemo | None = None
) -> tuple[CompiledKernel, CompileStats]:
    """Compile one job, uncached: (artifact, its :class:`CompileStats`).

    The entry the batch path, the worker processes and the service's slot
    threads call (:func:`compile_job_stats` under the name they look up);
    deterministic for a fixed job, so parallel and serial runs produce
    byte-identical artifacts.  *memo* is :func:`compile_job_stats`'s.
    """
    return compile_job_stats(job, memo=memo)


def compile_job_stats(
    job: CompileJob, memo: ProbeMemo | None = None
) -> tuple[CompiledKernel, CompileStats]:
    """Compile one job, uncached, with its telemetry (the input of
    ``perf/``'s compile workloads).

    With *memo*, the caller's :class:`~repro.compiler.search.ProbeMemo`,
    the job runs only the probes no earlier job of that memo has run and
    leaves its own behind: the same walk and the same artifact bytes, with
    ``probes_shared`` of the counters (and ``shared`` of each ladder)
    saying how much of it was looked up.  Without one every probe runs.

    When the whole-array ladder is exhausted the paged mapping, if there is
    one, stands in as the base mapping; when neither maps, the base
    ladder's :class:`~repro.util.errors.LadderExhausted` propagates.  The
    base mapping passes ``validate_mapping`` before its II is stored as
    ``ii_base``.

    The compile runs inside its own :func:`~repro.util.spans.collecting`
    scope, so per-job attribution is *exact* even when several jobs compile
    concurrently on sibling threads; nothing outlives the call but the
    returned stats, which also roll up into the caller's open scope.
    """
    with collecting() as scope:
        with span("pipeline.compile_job"):
            artifact = _compile(job, memo)
    return artifact, CompileStats(
        scope.counters.as_dict(), tuple(scope.ladders), tuple(scope.spans)
    )


def _compile(job: CompileJob, memo: ProbeMemo | None) -> CompiledKernel:
    dfg = get_kernel(job.kernel).build()
    cgra = job.build_cgra()
    key = job_key(job, dfg, cgra)
    layout = make_layout(cgra, job.page_size)
    config = job.mapper_config
    probes = None if memo is None else memo.for_dfg(dfg, key.dfg_fp)
    with span("compiler.base_map"):
        try:
            base = map_dfg(dfg, cgra, config=config, probes=probes)
        except LadderExhausted as exc:
            base, exhausted = None, exc
    with span("compiler.paged_map"):
        try:
            paged = map_dfg_paged(dfg, cgra, layout, config=config, probes=probes)
        except LadderExhausted:
            # the one verdict that is an artifact; anything else is a failure
            paged = None
    if base is None:
        if paged is None:
            raise exhausted
        # a paged mapping uses a subset of the whole array's PEs and links,
        # so it is a whole-array mapping the base search missed
        base = paged.mapping
    # only its II is stored, so nothing downstream would see it illegal
    validate_mapping(base)
    common = dict(
        kernel=job.kernel,
        rows=cgra.rows,
        cols=cgra.cols,
        rf_depth=cgra.rf_depth,
        mem_ports_per_row=cgra.mem_ports_per_row,
        page_shape=layout.shape,
        capability=cgra.capability.classes if cgra.capability is not None else None,
        seed=config.seed,
        dfg_fp=key.dfg_fp,
        arch_fp=key.arch_fp,
        mapper_fp=key.mapper_fp,
        ii_base=base.ii,
    )
    if paged is None:
        return CompiledKernel(layout_wrap=False, unmappable=True, **common)
    steady = tuple(
        (m, ii.numerator, ii.denominator)
        for m in range(1, paged.pages_used + 1)
        for ii in [
            steady_state_ii(
                paged.pages_used, paged.ii, m, wrap_used=paged.wrap_used
            )
        ]
    )
    return CompiledKernel(
        layout_wrap=paged.layout.allow_wrap,
        ii_paged=paged.ii,
        pages_used=paged.pages_used,
        wrap_used=paged.wrap_used,
        placements=tuple(
            (p.op_id, p.pe.row, p.pe.col, p.time)
            for p in sorted(
                paged.mapping.placements.values(), key=lambda p: p.op_id
            )
        ),
        routes=tuple(
            (
                r.edge_id,
                tuple((s.pe.row, s.pe.col, s.time) for s in r.steps),
                (r.tap.pe.row, r.tap.pe.col, r.tap.time) if r.tap else None,
            )
            for r in sorted(paged.mapping.routes.values(), key=lambda r: r.edge_id)
        ),
        steady_ii=steady,
        **common,
    )


@dataclass(frozen=True)
class CompileFailure:
    """Structured per-job failure from :func:`compile_many_outcomes`.

    One failing job no longer aborts a whole batch: the outcome list
    carries a ``CompileFailure`` in that job's slot (error class name plus
    message) while every other job still compiles, is stored, and is
    returned — which is what lets a multi-tenant service answer each
    coalesced waiter with *its* request's error instead of failing all of
    them on a sibling's exception.
    """

    job: CompileJob
    error: str
    message: str
    #: The original exception, for in-process callers that re-raise; not
    #: part of equality and never serialized (services ship error/message).
    cause: Exception | None = field(default=None, compare=False, repr=False)

    def raise_(self) -> None:
        """Re-raise the original exception (a :class:`MappingError` when
        the failure crossed a serialization boundary and lost it)."""
        if self.cause is not None:
            raise self.cause
        raise MappingError(f"{self.job.kernel}: {self.error}: {self.message}")


def _job_outcome(job: CompileJob, memo: ProbeMemo | None = None):
    """Compile one job, capturing any exception as a structured failure."""
    try:
        return compile_job(job, memo=memo)
    except Exception as exc:  # noqa: BLE001 - isolated per-job, reported upstream
        return CompileFailure(
            job=job, error=type(exc).__name__, message=str(exc), cause=exc
        )


def _job_outcome_pooled(job: CompileJob):
    """:func:`_job_outcome` as a pool worker's entry point: the outcome is
    pickled back to the parent, so a failure whose exception does not
    survive the round trip travels as its class name and message alone
    (an unpicklable result would otherwise break the whole pool)."""
    import pickle  # a pool worker's import: the serial path never pickles

    outcome = _job_outcome(job)
    if isinstance(outcome, CompileFailure):
        try:
            pickle.loads(pickle.dumps(outcome.cause))
        except Exception:  # noqa: BLE001 - any pickling failure, same answer
            outcome = replace(outcome, cause=None)
    return outcome


def _warm() -> None:
    """Initializer and warm-up task of ``repro.serve``'s job pool: a spawned
    worker imports this module, and with it the whole compiler, to find
    it, and nothing of the service (no asyncio, no ``ssl``)."""


def compile_many_outcomes(
    jobs: Iterable[CompileJob],
    *,
    store: ArtifactStore | None = None,
    workers: int = 1,
) -> list[CompiledKernel | CompileFailure]:
    """Compile *jobs*, returning one outcome per job in input order.

    Like :func:`compile_many`, but per-job failures are isolated: a job
    whose compile raises yields a :class:`CompileFailure` in its slot
    instead of aborting the batch, and every other job's artifact is still
    compiled, stored, and returned.  Successful outcomes are
    byte-identical to a batch with the failing jobs removed.  The serial
    path shares probe outcomes between its jobs through one
    :class:`~repro.compiler.search.ProbeMemo` of its own, gone with the
    call; the pooled path shares nothing.
    """
    jobs = list(jobs)
    resolved: dict[CompileJob, CompiledKernel | CompileFailure] = {}
    pending: list[CompileJob] = []
    for job in jobs:
        if job in resolved or job in pending:
            continue
        if store is not None:
            # key computation builds the DFG and the fabric, so a bad job
            # (unknown kernel, preset/size mismatch) fails here — isolate
            # it like any other per-job failure instead of aborting the batch
            try:
                hit = store.get(job_key(job))
            except Exception as exc:  # noqa: BLE001 - reported per job
                resolved[job] = CompileFailure(
                    job=job, error=type(exc).__name__, message=str(exc), cause=exc
                )
                continue
        else:
            hit = None
        if hit is not None:
            resolved[job] = hit
        else:
            pending.append(job)
    if pending:
        if workers > 1 and len(pending) > 1:
            # imported here, where a pool is spawned: the process-pool
            # stack (multiprocessing, pickle, socket, queue) is ~1.7 MiB
            # that a serial compile never uses
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # spawn, not fork: the caller may be a threaded process
            with ProcessPoolExecutor(
                min(workers, len(pending)),
                mp_context=multiprocessing.get_context("spawn"),
            ) as pool:
                compiled = list(pool.map(_job_outcome_pooled, pending))
            for outcome in compiled:
                if not isinstance(outcome, CompileFailure):
                    absorb(outcome[1])  # as a serial job's scope rolls up
        else:
            memo = ProbeMemo()
            compiled = [_job_outcome(job, memo) for job in pending]
        for job, outcome in zip(pending, compiled):
            if isinstance(outcome, CompileFailure):
                resolved[job] = outcome
                continue
            artifact, stats = outcome
            resolved[job] = artifact
            if store is not None:
                store.note_compile_time(stats.seconds)
                store.put(artifact)
    return [resolved[job] for job in jobs]


def compile_many(
    jobs: Iterable[CompileJob],
    *,
    store: ArtifactStore | None = None,
    workers: int = 1,
) -> list[CompiledKernel]:
    """Compile *jobs*, returning artifacts in input order.

    Warm jobs are served from *store* without touching the mapper;
    duplicate jobs are compiled once.  Compiled serially, the misses share
    one :class:`~repro.compiler.search.ProbeMemo` for the length of the
    call, so a sweep of one kernel over page sizes or mapper seeds runs
    each distinct probe once.  With ``workers > 1`` and more than
    one miss, whole jobs fan out over ``min(workers, misses)`` worker
    processes, each compiling its job with no memo; the
    parent stores the results.  Artifacts are byte-identical on either
    path, only wall-clock changes.  The workers are *spawned* (safe in a
    threaded caller), so a script that passes ``workers > 1`` needs the
    usual ``if __name__ == "__main__":`` guard.

    A failing job raises (the first failure in input order) after the
    rest of the batch has compiled and been stored; callers that need
    per-job errors use :func:`compile_many_outcomes`.
    """
    outcomes = compile_many_outcomes(jobs, store=store, workers=workers)
    for outcome in outcomes:
        if isinstance(outcome, CompileFailure):
            outcome.raise_()
    return outcomes


def compile_kernel(
    kernel: str,
    size: int,
    page_size: int,
    *,
    store: ArtifactStore | None = None,
) -> CompiledKernel:
    """Compile (or load) one kernel for one configuration."""
    return compile_many([CompileJob(kernel, size, page_size)], store=store)[0]


def build_profiles(
    size: int,
    page_size: int,
    *,
    seed: int = 0,
    store: ArtifactStore | None = None,
    kernels: Sequence[str] | None = None,
    workers: int = 1,
):
    """:class:`~repro.sim.system.KernelProfile` per mappable suite kernel
    on one configuration — the system simulator's input."""
    names = list(kernels) if kernels is not None else kernel_names()
    artifacts = compile_many(
        [CompileJob(name, size, page_size, seed=seed) for name in names],
        store=store,
        workers=workers,
    )
    profiles = {}
    for artifact in artifacts:
        profile = artifact.profile()
        if profile is not None:
            profiles[profile.name] = profile
    return profiles
