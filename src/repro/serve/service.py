"""The compile service: one flight table + fair scheduler + whole-job workers.

:class:`CompileService` is the transport-independent core the HTTP server
(:mod:`repro.serve.server`) and the bench harness drive directly.  One
instance owns:

* the :class:`~repro.pipeline.store.ArtifactStore` (thread-safe counters,
  atomic unique-temp writes — the PR's store fixes are what make sharing
  one store across handler threads sound);
* with ``workers >= 2``, one long-lived pool of that many **spawned**
  worker processes, started and warmed at start-up: a miss is a whole job
  run by :func:`~repro.pipeline.compile._job_outcome_pooled` in one of
  them — the worker entry point ``compile_many(workers=N)`` maps.  With
  ``workers = 1`` a miss is the same whole job on a slot thread.  Either
  way the parent stores the result;
* a worker thread pool of ``slots + 2`` threads: one per scheduler
  dispatch slot, plus headroom so request-key resolution stays responsive
  while every compile slot is busy;
* the key memo, ``CompileJob`` -> the future of its ``job_key`` call
  (bounded, FIFO; instance state like everything here);
* the flight table, digest -> :class:`_Flight`, one record per digest.  A
  pending flight is the digest's coalescing point: the first request
  opens it and schedules the probe-then-compile, every concurrent
  duplicate waits on its future, and the last request to leave it fires
  its cancel token.  A flight that resolved with a body — a store hit's
  validated bytes, or a compile's read-back — stays as the digest's memo
  entry (a digest has exactly one valid body), so a later request is
  answered at once, without a slot or a file read; at most
  ``_KEY_MEMO_MAX`` of them, FIFO, a pending flight never evicted.  A
  flight that resolved without a body (a failure or a cancel) leaves the
  table.  ``close()`` empties it;
* the probe memo, a :class:`~repro.compiler.search.ProbeMemo` the compiles
  on the slot threads of ``workers = 1`` share (bounded, FIFO, one lock,
  emptied by ``close()``): a miss runs only the probes no earlier miss of
  this service has run — the other seeds and page sizes of its kernel
  left most of them behind.  Jobs in worker processes share nothing;
* the :class:`~repro.serve.scheduler.FairScheduler`.

Request lifecycle: resolve the job to its ArtifactKey digest; a digest
whose flight resolved with a body is answered from it in the same loop
turn — the common case.  Otherwise join the digest's pending flight, or
open one and schedule its probe-then-compile onto the fair scheduler; the
scheduler's answer resolves the flight.  Resolution builds the DFG, so a
job's first requests share one off-loop call and every later one reads the
memo without awaiting.  The scheduled work probes the store on the loop
(one small file read): a hit has no thread hop at all, only a miss hands
the compile to a worker thread.  Every body the service holds is the bytes
of a store file — the bytes a probe validated, or a compile's read-back;
when that put fails, ``artifact.to_json()``, what it would have written —
so served bytes are byte-identical to offline ``compile_many`` output; a
file damaged after its first read is not read again by this service (the
next process recompiles it).  Cancellation has one contract at every
worker count: ``cancel()`` answers its waiter at once; the last detach
fires the flight's token, which drops a queued compile at pick time, and a
compile already running finishes and its result is dropped unstored.  A
worker process that dies breaks its pool: every job in flight on it
answers ``BrokenProcessPool`` (never stored) and the pool is replaced
before the next miss (DESIGN.md §9).
"""

from __future__ import annotations

import asyncio
import contextvars
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.compiler.search import ProbeMemo
from repro.pipeline.artifact import ArtifactKey, CompiledKernel
from repro.pipeline.compile import (
    CompileFailure,
    CompileJob,
    CompileStats,
    _job_outcome_pooled,
    _warm,
    compile_job,
    job_key,
)
from repro.pipeline.store import ArtifactStore
from repro.serve.protocol import CompileRequest, ServeResult
from repro.serve.scheduler import CancelToken, FairScheduler, RequestCancelled
from repro.util.errors import ReproError
from repro.util.spans import absorb, span

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["ServiceConfig", "CompileService"]

#: Bound on the key memo and on the resolved flights (FIFO): ``seed`` is an
#: unbounded wire field, so the set of distinct jobs is unbounded too.
#: Artifacts are 0.5-1.2 KB, so a full flight table is about 1 MiB.
_KEY_MEMO_MAX = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning for one service instance.

    ``workers >= 2`` spawns that many worker processes at start-up, each
    compiling whole jobs; ``workers = 1`` compiles on a slot thread, and
    only there do the misses share probe outcomes (DESIGN.md §9 has the
    two measured side by side).  A cancelled running compile runs to its
    end at any worker count, its result discarded.  ``slots`` bounds
    concurrent compiles; ``tenant_weights`` feeds the weighted round-robin
    (a tenant not named there has weight 1).
    """

    store_root: str | None = None
    workers: int = 1
    slots: int = 2
    tenant_weights: dict[str, int] | None = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.slots < 1:
            raise ValueError(f"slots must be >= 1, got {self.slots}")


@dataclass
class _Flight:
    """One digest's record: its future (resolves to a :class:`ServeResult`
    whose ``request_id`` each waiter replaces with its own), the token the
    last waiter to leave a pending flight fires, and the waiters attached."""

    future: asyncio.Future
    token: CancelToken = field(default_factory=CancelToken)
    waiters: int = 0


class CompileService:
    """The multi-tenant compile front door (transport-independent)."""

    def __init__(
        self, config: ServiceConfig | None = None, *, store: ArtifactStore | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None else ArtifactStore(self.config.store_root)
        self.scheduler = FairScheduler(
            self.config.slots, weights=self.config.tenant_weights
        )
        self._jobs: ProcessPoolExecutor | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._active: dict[str, asyncio.Future] = {}
        self._flights: dict[str, _Flight] = {}
        self._seq = 0
        self._started = False
        self._keys: dict[CompileJob, asyncio.Future] = {}
        self._probes = ProbeMemo()
        # request-level counters: only ever touched on the event loop
        self.body_hits = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.requests = 0
        self.hits = 0
        self.compiles = 0
        self.errors = 0
        self.cancelled = 0
        self.flights_started = 0
        self.coalesced = 0
        self.cancelled_flights = 0

    # -- lifecycle ------------------------------------------------------------------

    async def start(self) -> "CompileService":
        if self._started:
            return self
        loop = asyncio.get_running_loop()
        # slots compile threads plus headroom: key resolution (joining a
        # flight, hence cancellability) must never starve behind ladders
        # occupying every compile slot
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.slots + 2, thread_name_prefix="repro-serve"
        )
        if self.config.workers >= 2:
            await asyncio.gather(*map(asyncio.wrap_future, self._spawn_jobs_pool()))
        self.scheduler.start()
        self._started = True
        return self

    async def close(self) -> None:
        """Stop: running compiles finish, queued ones are answered
        ``RequestCancelled``, and every pending flight resolves before the
        pools shut down.  The service may be started again, on any loop."""
        if not self._started:
            return
        await self.scheduler.stop()
        pending = [f.future for f in self._flights.values() if not f.future.done()]
        await asyncio.gather(*pending)
        if self._jobs is not None:
            self._jobs.shutdown(wait=True, cancel_futures=True)
            self._jobs = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        # their futures belong to this run's loop
        self._keys.clear()
        self._flights.clear()
        self._probes.clear()
        self._started = False

    def _spawn_jobs_pool(self) -> list:
        """(Re)place the job pool; the futures of its warm-up tasks.  One
        warm-up per worker, submitted back to back, starts every process
        now — spawned, not forked: this process has threads.  The pool's
        imports live here, so a ``workers = 1`` service never loads
        ``multiprocessing``; its warm-up ``_warm`` lives beside the worker
        entry point, so a worker imports the compile path and not this
        module."""
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        self._jobs = ProcessPoolExecutor(
            self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_warm,
        )
        return [self._jobs.submit(_warm) for _ in range(self.config.workers)]

    async def __aenter__(self) -> "CompileService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the request path -----------------------------------------------------------

    def _off_loop(self, fn, *args) -> asyncio.Future:
        """``fn(*args)`` on the thread pool, in a copy of the caller's
        context: its spans land in the caller's open scope."""
        return asyncio.get_running_loop().run_in_executor(
            self._pool, contextvars.copy_context().run, fn, *args
        )

    def _next_request_id(self, request: CompileRequest) -> str:
        self._seq += 1
        return f"{request.tenant}-{self._seq}"

    def _resolve(self, job: CompileJob) -> asyncio.Future:
        """The memoised future of ``job_key(job)``: the first request of a
        job starts the one off-loop resolution, every other shares it."""
        resolving = self._keys.get(job)
        if resolving is not None:
            self.memo_hits += 1
            return resolving
        self.memo_misses += 1
        if len(self._keys) >= _KEY_MEMO_MAX:
            del self._keys[next(iter(self._keys))]
        resolving = self._keys[job] = self._off_loop(job_key, job)

        def _evict_failure(fut: asyncio.Future) -> None:
            # a failed resolution is reported to its waiters, never cached
            if (fut.cancelled() or fut.exception()) and self._keys.get(job) is fut:
                del self._keys[job]

        resolving.add_done_callback(_evict_failure)
        return resolving

    @span("serve.submit")
    async def submit(self, request: CompileRequest) -> ServeResult:
        """Serve one compile request end to end; never raises for
        per-request failures (they come back as structured errors)."""
        if not self._started:
            raise RuntimeError("service is not started")
        loop = asyncio.get_running_loop()
        rid = request.request_id or self._next_request_id(request)
        if rid in self._active:
            return ServeResult(
                request_id=rid,
                error="DuplicateRequest",
                message=f"request id {rid!r} is already active",
            )
        # reserve the id before the first await: a concurrent submit with
        # the same id must see it active, and cancel() can already reach it;
        # the waiter resolves to the flight's result, or to None on cancel()
        waiter: asyncio.Future = loop.create_future()
        self._active[rid] = waiter
        self.requests += 1
        flight: _Flight | None = None
        leader = False
        try:
            job = request.to_job()
            resolving = self._resolve(job)
            try:
                if not resolving.done():
                    # shielded: a cancelled waiter must not cancel its siblings'
                    await asyncio.shield(resolving)
                key: ArtifactKey = resolving.result()
            except ReproError as exc:
                self.errors += 1
                return ServeResult(
                    request_id=rid, error=type(exc).__name__, message=str(exc)
                )
            # cancel() may have landed while the key resolved: that request
            # must not join (and, by leaving, cancel) its siblings' flight
            if not waiter.done():
                known = self._flights.get(key.digest)
                if known is not None and known.future.done():
                    self.hits += 1
                    self.body_hits += 1
                    body = known.future.result().body
                    return ServeResult(
                        request_id=rid, digest=key.digest, source="hit", body=body
                    )
                leader = known is None
                if leader:
                    flight = self._lead(job, key, request)
                else:
                    flight = known
                    self.coalesced += 1
                flight.waiters += 1
                flight.future.add_done_callback(
                    lambda fut: waiter.done() or waiter.set_result(fut.result())
                )
            result: ServeResult | None = await waiter
        finally:
            del self._active[rid]
            # single detach per request: cancel() only resolves the waiter,
            # the flight refcount is always settled here
            if flight is not None:
                flight.waiters -= 1
                if not flight.waiters and not flight.future.done():
                    flight.token.cancel()
                    self.cancelled_flights += 1
        if result is None:
            self.cancelled += 1
            return ServeResult(
                request_id=rid,
                digest=key.digest,
                error="RequestCancelled",
                message="request was cancelled",
            )
        if not result.ok:
            self.errors += 1
            return dataclasses.replace(result, request_id=rid)
        if leader and result.source == "hit":
            self.hits += 1
        return dataclasses.replace(
            result, request_id=rid, source=result.source if leader else "coalesced"
        )

    async def cancel(self, request_id: str) -> bool:
        """Cancel one active request; True when it was still in flight.
        Other waiters coalesced onto the same compile are untouched — its
        result is discarded only when its last waiter has cancelled."""
        waiter = self._active.get(request_id)
        if waiter is None or waiter.done():
            return False
        waiter.set_result(None)
        return True

    # -- the flight -----------------------------------------------------------------

    def _lead(
        self, job: CompileJob, key: ArtifactKey, request: CompileRequest
    ) -> _Flight:
        """Open *key*'s flight and schedule its probe-then-compile; the
        scheduler's answer resolves it.  A submit that raises (a stopped
        scheduler) resolves it at once with that error."""
        digest = key.digest
        flight = _Flight(asyncio.get_running_loop().create_future())
        self._flights[digest] = flight
        self.flights_started += 1

        def answered(fut: asyncio.Future) -> None:
            exc = fut.exception()
            result = fut.result() if exc is None else _error(digest, exc)
            self._resolve_flight(digest, flight, result)

        try:
            sched = self.scheduler.submit(
                self._make_work(job, key),
                tenant=request.tenant,
                priority=request.priority,
                token=flight.token,
            )
        except Exception as exc:  # noqa: BLE001 - structured per-request error
            self._resolve_flight(digest, flight, _error(digest, exc))
        else:
            sched.future.add_done_callback(answered)
        return flight

    def _resolve_flight(
        self, digest: str, flight: _Flight, result: ServeResult
    ) -> None:
        """Publish *result* to every waiter.  With a body the flight becomes
        the digest's memo entry, the newest in FIFO order (the oldest memo
        entry goes past the bound); without one it leaves the table."""
        if result.source == "compiled":
            self.compiles += 1
        flight.future.set_result(result)
        del self._flights[digest]
        if result.body is None:
            return
        self._flights[digest] = flight
        if len(self._flights) > _KEY_MEMO_MAX:
            memo = [d for d, f in self._flights.items() if f.future.done()]
            if len(memo) > _KEY_MEMO_MAX:
                del self._flights[memo[0]]

    def _make_work(self, job: CompileJob, key: ArtifactKey):
        async def work(token: CancelToken) -> ServeResult:
            # the digest's one store probe in this service, on the loop: a
            # hit costs one ~50 us file read, less than the thread hop it
            # would ride, and serves (and leaves in the flight table) the
            # bytes it validated
            hit = self.store.get(key, raw=True)
            if hit is not None:
                return ServeResult(
                    request_id="", digest=key.digest, source="hit", body=hit[1]
                )
            return await self._compile_miss(job, key, token)

        return work

    async def _compile_miss(
        self, job: CompileJob, key: ArtifactKey, token: CancelToken
    ) -> ServeResult:
        """A store miss, at any worker count: the whole job on a slot
        thread (``workers = 1``) or in a worker process (``workers >= 2``,
        exactly as ``compile_many(workers=N)`` runs it, its record rolled
        up here as a slot thread's is); storing stays here in the parent.
        A compile is never interrupted, so a flight cancelled meanwhile is
        answered when its job ends, nothing stored."""
        jobs = self._jobs
        with span("serve.compile"):
            if jobs is None:
                outcome = await self._off_loop(self._compile_inline, job)
            else:
                from concurrent.futures.process import BrokenProcessPool

                try:
                    outcome = await asyncio.get_running_loop().run_in_executor(
                        jobs, _job_outcome_pooled, job
                    )
                except BrokenProcessPool:
                    # a worker died: every job on this pool fails like this
                    # one; the first to notice replaces the pool for the next
                    if self._jobs is jobs:
                        jobs.shutdown(wait=False)
                        self._spawn_jobs_pool()
                    raise
                if not isinstance(outcome, CompileFailure):
                    absorb(outcome[1])
        if token.cancelled:
            raise RequestCancelled("cancelled while its job ran; nothing stored")
        if isinstance(outcome, CompileFailure):
            return ServeResult(
                request_id="",
                digest=key.digest,
                error=outcome.error,
                message=outcome.message,
            )
        return await self._off_loop(self._store_compiled, key, *outcome)

    def _compile_inline(self, job: CompileJob):
        """The slot-thread body at ``workers = 1``: the whole job, its
        probes looked up in the service's memo, any failure captured as a
        :class:`~repro.pipeline.compile.CompileFailure` like a worker's."""
        try:
            return compile_job(job, memo=self._probes)
        except Exception as exc:  # noqa: BLE001 - reported as that flight's error
            return CompileFailure(
                job=job, error=type(exc).__name__, message=str(exc), cause=exc
            )

    def _store_compiled(
        self, key: ArtifactKey, artifact: CompiledKernel, stats: CompileStats
    ) -> ServeResult:
        """Store a fresh artifact, as ``compile_many_outcomes`` does; the
        served bytes are read back from the store file for byte parity
        with offline compiles.  When the put fails (it logs why), they are
        ``artifact.to_json()``, the bytes it would have written, and
        nothing is stored."""
        self.store.note_compile_time(stats.seconds)
        path = self.store.put(artifact)
        body = (
            path.read_bytes()
            if path is not None
            else artifact.to_json().encode("utf-8")
        )
        return ServeResult(
            request_id="",
            digest=key.digest,
            source="compiled",
            body=body,
            seconds=stats.seconds,
        )

    # -- introspection --------------------------------------------------------------

    def stats(self) -> dict:
        served = self.requests - self.errors - self.cancelled
        bodies = [
            f.future.result().body for f in self._flights.values() if f.future.done()
        ]
        return {
            "requests": self.requests,
            "served": served,
            "hits": self.hits,
            "compiles": self.compiles,
            "coalesced": self.coalesced,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "coalesce_rate": round(self.coalesced / self.requests, 4)
            if self.requests
            else 0.0,
            "cache_hit_rate": round(self.hits / self.requests, 4)
            if self.requests
            else 0.0,
            "resolve": {
                "memo_hits": self.memo_hits,
                "memo_misses": self.memo_misses,
                "entries": len(self._keys),
            },
            "memo": {
                "entries": len(bodies),
                "bytes": sum(map(len, bodies)),
                "hits": self.body_hits,
            },
            "probes": self._probes.stats(),
            "singleflight": {
                "flights_started": self.flights_started,
                "coalesced": self.coalesced,
                "cancelled_flights": self.cancelled_flights,
                "in_flight": len(self._flights) - len(bodies),
            },
            "scheduler": self.scheduler.stats(),
            "store": self.store.stats(),
        }


def _error(digest: str, exc: BaseException) -> ServeResult:
    """A flight's structured error: the exception's class name and text."""
    return ServeResult(
        request_id="", digest=digest, error=type(exc).__name__, message=str(exc)
    )
