"""The compile service: singleflight + fair scheduler + one search context.

:class:`CompileService` is the transport-independent core the HTTP server
(:mod:`repro.serve.server`) and the bench harness drive directly.  One
instance owns:

* the :class:`~repro.pipeline.store.ArtifactStore` (thread-safe counters,
  atomic unique-temp writes — the PR's store fixes are what make sharing
  one store across handler threads sound);
* one long-lived :class:`~repro.compiler.search.SearchContext`: with
  ``workers >= 2`` a **warm** pool whose probe processes fork once at
  startup and serve every request's ladders, instead of a pool per batch;
  with ``workers = 1`` the inline executor.  Either way each request
  compiles under its own view of it (``for_request``), which is what
  carries the request's cancel token into the ladder driver;
* a worker thread pool of ``slots + 2`` threads: one per scheduler
  dispatch slot, plus headroom so request-key resolution stays responsive
  while every compile slot is busy;
* the key memo, ``CompileJob`` -> the future of its ``job_key`` call
  (bounded, FIFO; instance state like everything here);
* the :class:`~repro.serve.singleflight.Singleflight` table and the
  :class:`~repro.serve.scheduler.FairScheduler`.

Request lifecycle: resolve the job to its ArtifactKey digest, join the
digest's flight; the flight leader schedules probe-then-compile onto the
fair scheduler; waiters coalesce.  Resolution builds the DFG, so a job's
first requests share one off-loop call and every later one reads the memo
without awaiting.  The scheduled work probes the store on the loop (two
small file reads): a hit — the common case — has no thread hop at all,
only a miss hands the compile to a worker thread.
Served bytes are always read back from the store file, so they are
byte-identical to offline ``compile_many`` output.  Cancellation detaches
one waiter; the last detach fires the flight's token, which drops a
queued compile at pick time or stops a running ladder at its next probe
boundary (:class:`~repro.compiler.search.CancelledSearch`).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from repro.compiler.search import CancelledSearch, SearchContext
from repro.pipeline.artifact import ArtifactKey
from repro.pipeline.compile import CompileJob, compile_job, job_key
from repro.pipeline.store import ArtifactStore
from repro.serve.protocol import CompileRequest, ServeResult
from repro.serve.scheduler import CancelToken, FairScheduler, RequestCancelled
from repro.serve.singleflight import Flight, Singleflight
from repro.util.errors import ReproError

__all__ = ["ServiceConfig", "CompileService"]

#: Bound on the key memo (FIFO, like ``search._CTX_CACHE_MAX``): ``seed`` is
#: an unbounded wire field, so the set of distinct jobs is unbounded too.
_KEY_MEMO_MAX = 1024


@dataclass(frozen=True)
class ServiceConfig:
    """Tuning for one service instance.

    ``workers >= 2`` pre-forks that many probe processes into the warm
    :class:`~repro.compiler.search.SearchContext`; ``workers = 1`` walks
    each ladder inline on the handler thread.  A running compile stops at
    its next probe boundary when cancelled, at any worker count.  ``slots``
    bounds concurrent compiles; ``tenant_weights`` feeds the weighted
    round-robin (missing tenants get ``default_weight``).
    """

    store_root: str | None = None
    workers: int = 1
    slots: int = 2
    tenant_weights: dict[str, int] | None = None
    default_weight: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


@dataclass
class _FlightOutcome:
    """What a resolved flight publishes to its waiters."""

    digest: str
    source: str | None = None  # "hit" | "compiled"
    body: bytes | None = None
    seconds: float = 0.0
    error: str | None = None
    message: str | None = None


@dataclass
class _ActiveRequest:
    waiter: asyncio.Future
    cancelled: bool = field(default=False)


class CompileService:
    """The multi-tenant compile front door (transport-independent)."""

    def __init__(
        self, config: ServiceConfig | None = None, *, store: ArtifactStore | None = None
    ) -> None:
        self.config = config or ServiceConfig()
        self.store = store if store is not None else ArtifactStore(self.config.store_root)
        self.flights = Singleflight()
        self.scheduler = FairScheduler(
            self.config.slots,
            weights=self.config.tenant_weights,
            default_weight=self.config.default_weight,
        )
        self._search: SearchContext | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._active: dict[str, _ActiveRequest] = {}
        self._leader_tasks: dict[str, asyncio.Task] = {}
        self._seq = 0
        self._started = False
        self._keys: dict[CompileJob, asyncio.Future] = {}
        # request-level counters: only ever touched on the event loop
        self.memo_hits = 0
        self.memo_misses = 0
        self.requests = 0
        self.hits = 0
        self.compiles = 0
        self.errors = 0
        self.cancelled = 0

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
            # warm pool: fork every probe worker now, before any handler
            # thread exists, and keep it for the server's whole lifetime
            self._search = await loop.run_in_executor(
                self._pool, SearchContext.create, self.config.workers
            )
        else:
            self._search = SearchContext()
        self.scheduler.start()
        self._started = True
        return self

    async def close(self) -> None:
        if not self._started:
            return
        await self.scheduler.stop()
        for task in list(self._leader_tasks.values()):
            await task
        if self._search is not None:
            self._search.close()
            self._search = None
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._keys.clear()  # its futures belong to this run's loop
        self._started = False

    async def __aenter__(self) -> "CompileService":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # -- the request path -----------------------------------------------------------

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
        loop = asyncio.get_running_loop()
        resolving = self._keys[job] = loop.run_in_executor(self._pool, job_key, job)

        def _evict_failure(fut: asyncio.Future) -> None:
            # a failed resolution is reported to its waiters, never cached
            if (fut.cancelled() or fut.exception()) and self._keys.get(job) is fut:
                del self._keys[job]

        resolving.add_done_callback(_evict_failure)
        return resolving

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
        # the same id must see it active, and cancel() can already reach it
        waiter: asyncio.Future = loop.create_future()
        active = self._active[rid] = _ActiveRequest(waiter=waiter)
        self.requests += 1
        flight: Flight | None = None
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

            def _on_flight_done(fut: asyncio.Future) -> None:
                if not waiter.done():
                    waiter.set_result(fut.result())

            # cancel() may have landed while the key resolved: that request
            # must not join (and, by leaving, cancel) its siblings' flight
            if not waiter.done():
                flight, leader = self.flights.join(key.digest)
                if leader:
                    self._lead_flight(flight, job, key, request)
                flight.future.add_done_callback(_on_flight_done)
            outcome: _FlightOutcome | None = await waiter
        finally:
            del self._active[rid]
            # single detach per request: cancel() only resolves the waiter,
            # the flight refcount is always settled here
            if flight is not None:
                self.flights.leave(flight)
        if active.cancelled or outcome is None:
            self.cancelled += 1
            return ServeResult(
                request_id=rid,
                digest=key.digest,
                error="RequestCancelled",
                message="request was cancelled",
            )
        if outcome.body is None:
            self.errors += 1
            return ServeResult(
                request_id=rid,
                digest=key.digest,
                source=outcome.source,
                seconds=outcome.seconds,
                error=outcome.error,
                message=outcome.message,
            )
        source = outcome.source if leader else "coalesced"
        if outcome.source == "hit" and leader:
            self.hits += 1
        return ServeResult(
            request_id=rid,
            digest=key.digest,
            source=source,
            body=outcome.body,
            seconds=outcome.seconds,
        )

    async def cancel(self, request_id: str) -> bool:
        """Cancel one active request; True when it was still in flight.
        Other waiters coalesced onto the same compile are untouched — the
        underlying ladder stops only when its last waiter cancels."""
        active = self._active.get(request_id)
        if active is None or active.waiter.done():
            return False
        active.cancelled = True
        active.waiter.set_result(None)
        return True

    # -- the flight leader ----------------------------------------------------------

    def _lead_flight(
        self, flight: Flight, job: CompileJob, key: ArtifactKey, request: CompileRequest
    ) -> None:
        """Schedule the flight's probe-then-compile and publish its outcome
        to every waiter."""
        sched = self.scheduler.submit(
            self._make_work(job, key),
            tenant=request.tenant,
            priority=request.priority,
            token=flight.token,
        )

        async def _lead() -> None:
            try:
                outcome = await sched.future
            except (RequestCancelled, CancelledSearch) as exc:
                outcome = _FlightOutcome(
                    digest=key.digest, error="RequestCancelled", message=str(exc)
                )
            except ReproError as exc:
                outcome = _FlightOutcome(
                    digest=key.digest, error=type(exc).__name__, message=str(exc)
                )
            except Exception as exc:  # noqa: BLE001 - structured per-request error
                outcome = _FlightOutcome(
                    digest=key.digest, error=type(exc).__name__, message=str(exc)
                )
            if outcome.source == "compiled":
                self.compiles += 1
            self.flights.resolve(flight, outcome)

        task = asyncio.get_running_loop().create_task(_lead())
        self._leader_tasks[flight.digest] = task
        task.add_done_callback(
            lambda _t, digest=flight.digest: self._leader_tasks.pop(digest, None)
        )

    def _make_work(self, job: CompileJob, key: ArtifactKey):
        loop = asyncio.get_running_loop()

        async def work(token: CancelToken) -> _FlightOutcome:
            # the one store probe of the request, on the loop: a hit costs
            # two ~50 us file reads, less than the thread hop it would ride
            if self.store.get(key) is not None:
                return _FlightOutcome(
                    digest=key.digest,
                    source="hit",
                    body=self.store.path_for(key).read_bytes(),
                )
            return await loop.run_in_executor(
                self._pool, self._compile_blocking, job, key, token
            )

        return work

    def _compile_blocking(
        self, job: CompileJob, key: ArtifactKey, token: CancelToken
    ) -> _FlightOutcome:
        """The worker-thread body, entered on a store miss only: one
        mapper invocation under this request's view of the search context;
        served bytes are read back from the store file for byte parity
        with offline compiles."""
        if token.cancelled:
            raise CancelledSearch("cancelled before ladder start")
        started = time.perf_counter()
        artifact, seconds = compile_job(
            job, search=self._search.for_request(token.is_set)
        )
        self.store.note_compile_time(seconds)
        path = self.store.put(artifact)
        body = (
            path.read_bytes()
            if path is not None
            else artifact.to_json().encode("utf-8")
        )
        return _FlightOutcome(
            digest=key.digest,
            source="compiled",
            body=body,
            seconds=time.perf_counter() - started,
        )

    # -- introspection --------------------------------------------------------------

    def stats(self) -> dict:
        served = self.requests - self.errors - self.cancelled
        return {
            "requests": self.requests,
            "served": served,
            "hits": self.hits,
            "compiles": self.compiles,
            "coalesced": self.flights.coalesced,
            "errors": self.errors,
            "cancelled": self.cancelled,
            "coalesce_rate": round(self.flights.coalesced / self.requests, 4)
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
            "singleflight": self.flights.stats(),
            "scheduler": self.scheduler.stats(),
            "store": self.store.stats(),
        }
