"""The II ladder: one driver over the (II, attempt) lattice, two executors.

Every mapping in this compiler is the answer to the same question: walking
the lattice {(ii, attempt)} in lexicographic order between the mapper's
first and last rung (``ladder_rungs``), which probe succeeds first?
:func:`climb_ladder` is the only code that knows that walk — rank <->
(ii, attempt), the ``cancel_check`` poll between probes, the exhaustion
:class:`~repro.util.errors.LadderExhausted` — and it runs the probes
through one of two executors:

* **inline** (a :class:`SearchContext` without a pool, which is what
  ``workers=1`` means): each probe runs in the calling thread on the
  caller's mapper, one at a time, so the walk *is* the serial ladder;
* **raced** (a context owning a ``ProcessPoolExecutor``): every lattice
  point becomes an independent, picklable :class:`ProbeTask` that rebuilds
  the mapper in a worker process from a :class:`MapperSpec`; probes
  speculate ahead on higher rungs while lower ones are still running, a
  landed success **cancels** every probe strictly above it, and probes
  already running are left to finish, their verdicts discarded (counted
  as speculation waste).

The reduction is by **canonical order, not completion order**: the winner
is always the success with the smallest (ii, attempt), and a probe's op
order is indexed by its lattice point (:meth:`~repro.compiler.ems.
EMSMapper.attempt_order`), not by which probes ran before it.  So the
artifact is byte-identical for either executor, any worker count and any
completion timing.

Worker-budget sharing: all concurrent raced ladders (the concurrent
requests of :mod:`repro.serve` at ``--workers N``, the raced executor's
one production caller) draw probe slots from one :class:`WorkerBudget`.
A ladder blocks for its *first* slot (so every miss makes progress) but
only takes speculative extra slots opportunistically (so once most
requests are done, the idle slots drain into attempt probes of the
stragglers).  Batches do not come here: :func:`repro.pipeline.compile.
compile_many` fans whole jobs out to worker processes, each walking its
ladders inline (DESIGN.md §11).
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from dataclasses import dataclass, field, replace

from repro.arch.cgra import CGRA
from repro.compiler.ems import EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping
from repro.compiler.stats import counters, job_counters
from repro.util.errors import LadderExhausted

__all__ = [
    "MapperSpec",
    "ProbeTask",
    "ProbeResult",
    "WorkerBudget",
    "SearchContext",
    "CancelledSearch",
    "LadderReport",
    "ladder_totals",
    "climb_ladder",
    "run_probe",
]


class CancelledSearch(Exception):
    """A ladder was cooperatively cancelled mid-search.

    Deliberately *not* a :class:`~repro.util.errors.MappingError`: the
    pipeline converts exhausted ladders into unmappable artifacts, and a
    cancelled request must never masquerade as an unmappable kernel (that
    artifact would be stored and served to every future tenant).
    """


# --------------------------------------------------------------------------- specs


@dataclass(frozen=True)
class MapperSpec:
    """Picklable recipe for rebuilding an :class:`EMSMapper` in a worker.

    The mapper itself cannot cross a process boundary (its hop filter,
    bus key and rank function are closures over a live
    :class:`~repro.core.paging.PageLayout`), but everything those closures
    are derived from is a handful of integers: the CGRA parameters, the
    page tile shape, the wrap flag and the subchain prefix length.  A spec
    plus a DFG therefore reconstructs a mapper that behaves identically to
    the caller's, which is what makes probes picklable tasks.
    """

    rows: int
    cols: int
    rf_depth: int
    mem_ports_per_row: int
    diagonal: bool
    torus: bool
    config: MapperConfig
    # None -> unconstrained baseline mapper on the whole array; otherwise
    # the paged mapper on PageLayout(cgra, page_shape, allow_wrap),
    # restricted to the first num_pages pages when that is a strict prefix.
    page_shape: tuple[int, int] | None = None
    allow_wrap: bool = False
    num_pages: int | None = None
    # canonical restricted-classes encoding of the fabric's CapabilityMap
    # (None on the homogeneous default) — hashable, so it can sit in the
    # worker-side context cache key like every other spec field
    capability: tuple[tuple[str, tuple[int, ...]], ...] | None = None

    @classmethod
    def of(cls, mapper: EMSMapper) -> "MapperSpec":
        """The spec of a live mapper: the whole-array :class:`EMSMapper`,
        or the :class:`~repro.compiler.paged.PagedMapper` /
        :class:`~repro.compiler.hier.HierMapper` of a layout (full chain,
        full ring, or a prefix subchain — subchains are always prefixes of
        the ring order, so the page count alone reconstructs them)."""
        cgra, layout = mapper.cgra, mapper.layout
        return cls(
            rows=cgra.rows,
            cols=cgra.cols,
            rf_depth=cgra.rf_depth,
            mem_ports_per_row=cgra.mem_ports_per_row,
            diagonal=cgra.diagonal,
            torus=cgra.torus,
            config=mapper.config,
            page_shape=tuple(layout.shape) if layout is not None else None,
            allow_wrap=layout is not None and layout.allow_wrap,
            num_pages=layout.num_pages if layout is not None else None,
            capability=(
                cgra.capability.classes if cgra.capability is not None else None
            ),
        )

    def build_cgra(self) -> CGRA:
        from repro.arch.capability import CapabilityMap

        return CGRA(
            self.rows,
            self.cols,
            rf_depth=self.rf_depth,
            mem_ports_per_row=self.mem_ports_per_row,
            diagonal=self.diagonal,
            torus=self.torus,
            capability=(
                CapabilityMap(self.rows, self.cols, self.capability)
                if self.capability is not None
                else None
            ),
        )

    def build(self):
        """Reconstruct the mapper: the whole-array :class:`EMSMapper`, or —
        for a paged spec — the :class:`~repro.compiler.paged.PagedMapper`
        / :class:`~repro.compiler.hier.HierMapper` of the rebuilt layout,
        as ``config.backend`` selects.
        """
        cgra = self.build_cgra()
        if self.page_shape is None:
            return EMSMapper(cgra, config=self.config)
        from repro.compiler.hier import HierMapper
        from repro.compiler.paged import PagedMapper
        from repro.core.paging import PageLayout

        layout = PageLayout(cgra, self.page_shape, allow_wrap=self.allow_wrap)
        if self.num_pages is not None and self.num_pages < layout.num_pages:
            layout = layout.subchain(self.num_pages)
        cls = HierMapper if self.config.backend == "hier" else PagedMapper
        return cls(cgra, layout, self.config)


@dataclass(frozen=True)
class ProbeTask:
    """One (ii, attempt) lattice point, as a picklable worker task."""

    spec: MapperSpec
    dfg: object  # repro.dfg.graph.DFG (picklable)
    dfg_fp: str  # precomputed fingerprint, the worker-side cache key
    start_ii: int
    ii: int
    attempt: int


@dataclass(frozen=True)
class ProbeResult:
    """A probe's verdict: the mapping on success, else None (and *stuck*,
    the mapper's ``(op_id, reason)``, says what it died on), plus the
    worker-side wall clock and search-counter delta for instrumentation."""

    ii: int
    attempt: int
    mapping: Mapping | None
    seconds: float
    counters: dict[str, int]
    stuck: tuple[int, str] | None = None


# Worker-side ladder context cache: rebuilding the mapper (grid index,
# routing context) and the base op orders once per ladder instead of once
# per probe.  Keyed by (spec, dfg fingerprint); bounded, since a worker
# serves many ladders over its lifetime.
_CTX_CACHE: dict[tuple, tuple[object, list[list[int]]]] = {}
_CTX_CACHE_MAX = 8


def _probe_context(task: ProbeTask) -> tuple[object, list[list[int]]]:
    key = (task.spec, task.dfg_fp)
    hit = _CTX_CACHE.get(key)
    if hit is None:
        mapper = task.spec.build()
        hit = (mapper, mapper.attempt_orders(task.dfg))
        if len(_CTX_CACHE) >= _CTX_CACHE_MAX:
            _CTX_CACHE.pop(next(iter(_CTX_CACHE)))  # repro: allow[RACE-SHARED-MUT] per-process probe cache: run_probe only runs in a ProcessPoolExecutor worker, which owns a private copy and runs one task at a time
        _CTX_CACHE[key] = hit  # repro: allow[RACE-SHARED-MUT] per-process probe cache: same ownership argument as the eviction above
    return hit


def run_probe(task: ProbeTask) -> ProbeResult:
    """Run one serial-identical placement attempt (the worker entry point).

    Top-level and argument-picklable so a ``ProcessPoolExecutor`` can run
    it; also callable in-process (the tests' synchronous executors do).
    """
    started = time.perf_counter()
    with job_counters() as probe_counters:
        mapper, orders = _probe_context(task)
        mapping = mapper.run_lattice_attempt(
            task.dfg, task.start_ii, task.ii, task.attempt, orders
        )
    return ProbeResult(
        ii=task.ii,
        attempt=task.attempt,
        mapping=mapping,
        seconds=time.perf_counter() - started,
        counters=probe_counters.as_dict(),
        stuck=mapper.stuck,
    )


# --------------------------------------------------------------------- the budget


class WorkerBudget:
    """A shared pool of probe slots, one per worker process.

    Kernel-level and attempt-level parallelism draw from the *same* budget
    so they can never oversubscribe the pool: each ladder blocks until it
    holds one slot (every compile miss makes progress), and takes
    additional speculative slots only when they are idle.
    """

    def __init__(self, slots: int) -> None:
        if slots < 1:
            raise ValueError(f"budget needs >= 1 slot, got {slots}")
        self.slots = slots
        self._sem = threading.Semaphore(slots)

    def acquire(self, *, blocking: bool = True) -> bool:
        return self._sem.acquire(blocking=blocking)

    def release(self) -> None:
        self._sem.release()


# ------------------------------------------------------------------- the context


@dataclass
class SearchContext:
    """Where a ladder's probes run, and whether it can be stopped.

    The default-constructed context is the **inline** executor: no pool,
    one probe at a time in the calling thread.  :meth:`create` builds the
    **raced** one — a process pool plus the shared budget; one such
    context is shared by every ladder of a compile service's lifetime
    (:class:`repro.serve.service.CompileService` creates it at start-up).
    A raced ``executor`` only needs ``submit``; tests inject deliberately
    reordered executors to exercise the reduction.
    """

    workers: int = 1
    executor: object | None = None  # duck-typed: .submit(fn, arg) -> Future
    budget: WorkerBudget | None = None
    owns_executor: bool = False
    #: Cooperative-cancellation probe: polled by :func:`climb_ladder`
    #: between probes; returning True raises :class:`CancelledSearch` out
    #: of the ladder.  ``None`` (the default) means the ladder is not
    #: cancellable.
    cancel_check: object | None = None

    def for_request(self, cancel_check) -> "SearchContext":
        """A per-request view of this context: same executor and budget
        (one warm pool serves every tenant), but with *cancel_check* wired
        in so one request's ladders can be cancelled without touching the
        shared pool.  The view never owns the executor — closing it is a
        no-op."""
        return replace(self, owns_executor=False, cancel_check=cancel_check)

    @classmethod
    def create(cls, workers: int) -> "SearchContext":
        """Build a process-pool context with *workers* probe slots.

        The pool is pre-warmed (all workers forked immediately) so that
        later submissions from multiple ladder threads never fork a
        multi-threaded parent.
        """
        if workers < 2:
            raise ValueError("a speculative context needs workers >= 2")
        pool = ProcessPoolExecutor(max_workers=workers)
        wait([pool.submit(_warm) for _ in range(workers)])
        return cls(
            workers=workers,
            executor=pool,
            budget=WorkerBudget(workers),
            owns_executor=True,
        )

    def close(self) -> None:
        if self.owns_executor and hasattr(self.executor, "shutdown"):
            self.executor.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "SearchContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _warm(x: int = 0) -> int:  # pragma: no cover - trivial
    return x


@dataclass
class LadderReport:
    """Per-ladder outcome record: the (II, attempt) timeline of one search.

    ``timeline`` holds one ``[ii, attempt, outcome, seconds, stuck]`` row
    per probe in canonical order; outcomes are ``success``/``fail``
    (completed verdicts), ``cancelled`` (never started), ``wasted``
    (completed above the winner) and ``abandoned`` (still running when the
    ladder concluded); *stuck* is the ``(op_id, reason)`` a ``fail`` died
    on, else None.  ``per_ii`` compresses that into one row per II rung,
    ``stuck`` into one count per (op, reason).
    """

    start_ii: int
    attempts_per_ii: int
    winner: tuple[int, int] | None = None
    probes_launched: int = 0
    probes_cancelled: int = 0
    probes_wasted: int = 0
    useful_seconds: float = 0.0
    wasted_seconds: float = 0.0
    timeline: list[list] = field(default_factory=list)

    def per_ii(self) -> list[list]:
        """``[ii, launched, failed, cancelled, won_attempt|-1]`` per rung."""
        rows: dict[int, list] = {}
        for ii, attempt, outcome, _seconds, _stuck in self.timeline:
            row = rows.setdefault(ii, [ii, 0, 0, 0, -1])
            row[1] += 1
            if outcome == "fail":
                row[2] += 1
            elif outcome == "cancelled":
                row[3] += 1
            elif outcome == "success" and (
                self.winner is not None and (ii, attempt) == self.winner
            ):
                row[4] = attempt
        return [rows[ii] for ii in sorted(rows)]

    def stuck(self) -> Counter:
        """Failed probes per ``(op_id, reason)`` they died on — the ops a
        failing ladder keeps dying on are its ``most_common()``."""
        return Counter(row[4] for row in self.timeline if row[4] is not None)


def ladder_totals(reports) -> dict:
    """Sum ladder reports — one job's, or every job's of a run — into
    probe totals plus the speculation efficiency (the fraction of probe
    wall clock the canonical reduction kept)."""
    reports = list(reports)
    useful = sum(r.useful_seconds for r in reports)
    wasted = sum(r.wasted_seconds for r in reports)
    total = useful + wasted
    return {
        "ladders": len(reports),
        "probes_launched": sum(r.probes_launched for r in reports),
        "probes_cancelled": sum(r.probes_cancelled for r in reports),
        "probes_wasted": sum(r.probes_wasted for r in reports),
        "useful_seconds": round(useful, 4),
        "wasted_seconds": round(wasted, 4),
        "speculation_efficiency": round(useful / total, 4) if total > 0 else 1.0,
    }


# ---------------------------------------------------------------------- the driver


def _probe_inline(
    mapper: EMSMapper, dfg, start_ii: int, ii: int, attempt: int, orders
) -> Future:
    """The inline executor: run the probe to completion in the calling
    thread, on the caller's mapper, and hand it back as a finished future.
    Its search effort lands on the thread's active counters directly, so
    the result carries no counter delta."""
    began = time.perf_counter()
    mapping = mapper.run_lattice_attempt(dfg, start_ii, ii, attempt, orders)
    seconds = time.perf_counter() - began
    fut: Future = Future()
    fut.set_result(ProbeResult(ii, attempt, mapping, seconds, {}, mapper.stuck))
    return fut


def climb_ladder(
    mapper: EMSMapper,
    dfg,
    *,
    min_ii: int | None = None,
    search: SearchContext | None = None,
    log: list[LadderReport] | None = None,
) -> Mapping:
    """Climb *mapper*'s (II, attempt) ladder for *dfg*: the one II walk.

    Returns the mapping of the lowest-(ii, attempt) success, or raises
    :class:`~repro.util.errors.LadderExhausted` when every rung from the
    first to the last of ``mapper.ladder_rungs`` fails — at once, with no
    probe launched, when the first lies above the last.  *search* picks
    the executor (``None`` is the inline one) and may carry a
    ``cancel_check``, polled between probes; ``log`` collects this
    ladder's :class:`LadderReport`.
    """
    ctx = search or SearchContext()
    start_ii, max_ii = mapper.ladder_rungs(dfg, min_ii=min_ii)
    per_ii = mapper.lattice_attempts_per_ii()
    n_ranks = max(0, max_ii - start_ii + 1) * per_ii
    next_rank = 0
    report = LadderReport(start_ii=start_ii, attempts_per_ii=per_ii)
    inline = ctx.executor is None
    if inline:
        orders = mapper.attempt_orders(dfg)
    else:
        spec, dfg_fp = MapperSpec.of(mapper), dfg.fingerprint()

    def point(rank: int) -> tuple[int, int]:
        return (start_ii + rank // per_ii, rank % per_ii)

    def record(rank: int, verdict: str, secs: float = 0.0, stuck=None) -> None:
        report.timeline.append([*point(rank), verdict, round(secs, 4), stuck])
        if verdict == "cancelled":
            report.probes_cancelled += 1

    inflight: dict[Future, int] = {}
    best: int | None = None  # rank of the lowest success so far
    cancel_check = ctx.cancel_check
    try:
        while True:
            if cancel_check is not None and cancel_check():
                # Cooperative cancellation: stop submitting and bail out;
                # the finally block cancels queued probes and abandons the
                # running ones.
                raise CancelledSearch(
                    f"ladder cancelled at rank {next_rank}/{n_ranks}"
                )
            # ranks are submitted in order, so every rank below a landed
            # success is resolved unless it is still in flight
            if best is not None and all(r > best for r in inflight.values()):
                break  # canonical winner stands
            # never submit at or above a landed success: canonical pruning
            limit = n_ranks if best is None else best
            if next_rank >= limit and not inflight:
                raise LadderExhausted(
                    f"could not map {dfg.name!r} ({dfg.num_ops} ops) on "
                    f"{len(mapper.allowed_pes)} PEs within II <= {max_ii}"
                )
            while next_rank < limit and len(inflight) < ctx.workers:
                ii, attempt = point(next_rank)
                if inline:
                    fut = _probe_inline(mapper, dfg, start_ii, ii, attempt, orders)
                # raced: a picklable task on the pool, one shared-budget slot
                # per probe in flight.  The first slot blocks (every ladder
                # keeps moving); extras are speculative and only taken when
                # the budget has idle slots
                elif ctx.budget.acquire(blocking=not inflight):
                    fut = ctx.executor.submit(
                        run_probe,
                        ProbeTask(spec, dfg, dfg_fp, start_ii, ii, attempt),
                    )
                    fut.add_done_callback(lambda _f: ctx.budget.release())
                else:
                    break
                inflight[fut] = next_rank
                next_rank += 1
                report.probes_launched += 1
            done, _pending = wait(
                list(inflight),
                return_when=FIRST_COMPLETED,
                # cancellable ladders poll so a cancel lands within ~50 ms
                # even while a long probe is still running
                timeout=None if cancel_check is None else 0.05,
            )
            # process simultaneous completions in canonical rank order so
            # the report's timeline/waste labels are deterministic too
            for fut in sorted(done, key=inflight.__getitem__):
                rank = inflight.pop(fut)
                if fut.cancelled():
                    record(rank, "cancelled")
                    continue
                res: ProbeResult = fut.result()
                counters().add(res.counters)
                if best is not None and rank > best:
                    # completed above an already-landed success: waste
                    record(rank, "wasted", res.seconds)
                    report.probes_wasted += 1
                    report.wasted_seconds += res.seconds
                    continue
                if res.mapping is not None:
                    record(rank, "success", res.seconds)
                else:
                    record(rank, "fail", res.seconds, res.stuck)
                report.useful_seconds += res.seconds
                if res.mapping is not None:
                    # a success above an earlier one was billed as waste
                    # just now, so this one is the lowest so far
                    best, winner = rank, res.mapping
                    # cancel everything strictly above the success
                    for f2, r2 in list(inflight.items()):
                        if r2 > best and f2.cancel():
                            inflight.pop(f2)
                            record(r2, "cancelled")
    finally:
        # Probes still running above the winner (or after an error) cannot
        # be interrupted; cancel what never started and let the rest drain
        # into the pool, their verdicts unread.
        for fut, rank in list(inflight.items()):
            if fut.cancel():
                record(rank, "cancelled")
            else:
                record(rank, "abandoned")
                report.probes_wasted += 1
        report.winner = point(best) if best is not None else None
        if log is not None:
            log.append(report)

    # A raced mapping was built against the worker's CGRA/DFG copies; rebind
    # to the caller's objects so identity-sensitive callers see their own.
    winner.dfg = dfg
    winner.cgra = mapper.cgra
    return winner
