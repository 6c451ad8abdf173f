"""The one telemetry scope: counters, ladder reports and spans, returned.

A job's telemetry is a return value, never state left behind in the
process.  :func:`collecting` opens a scope and yields its
:class:`Collected`; while it is open, what the code under it reports lands
there and nowhere else:

* :class:`MapperCounters` — the mapper's search volume, incremented on the
  instance :func:`counters` returns;
* :class:`~repro.compiler.search.LadderReport` — one per ladder
  :func:`~repro.compiler.search.climb_ladder` walks;
* spans — one ``(name, start, end)`` per :class:`span` that closed, both
  times ``time.perf_counter()`` readings: no pid, no thread id, no time of
  day, so nothing here can reach an artifact byte.

The innermost open scope is a context variable, so each thread and each
asyncio task sees its own: concurrent jobs get exact attribution with no
lock on the hot path.  Work handed to a thread pool reports to the
submitter's scope when it runs in a copy of the submitter's context
(``contextvars.copy_context().run``).  Scopes nest: a closed scope stays
readable, and its record rolls up into the enclosing one once.  A record
made in another process comes back with its result and is rolled up with
:func:`absorb`.

This is the only module under ``src/`` that reads a clock.
"""

from __future__ import annotations

import functools
import inspect
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import asdict, dataclass, field
from time import perf_counter

__all__ = [
    "Collected", "MapperCounters", "absorb", "collecting", "counters", "current",
    "span",
]


@dataclass
class MapperCounters:
    """Search-effort counters of one scope (one compile job).

    The mapper's cost model is search volume: how many time-extended states
    the router expands, how many (time, PE) candidates the placer probes,
    how many of them are refuted before any search.  ``perf/`` reports them
    next to wall-clock timings, so a perf regression shows up as a
    search-volume regression even on noisy machines.  The increments live
    on paths run millions of times per kernel, so a hot function fetches
    the instance once (:func:`counters`) and then does plain integer adds.
    """

    #: route queries that reached the router (find_route_ids); edges of
    #: candidates the placer refuted before claiming never issue one, and
    #: the candidate an op commits replays its trial's routes without one
    route_calls: int = 0
    #: long-route queries answered None by RoutingContext.reachable (no
    #: walk through free slots, or too few corridor PEs for some modulo
    #: slot's steps), no DFS run
    routes_refuted: int = 0
    #: placer candidates rejected by the same predicate before any claim:
    #: in bulk by the per-cycle candidate mask (its frontier half, asked
    #: once per anchored endpoint) or one at a time by the predicate itself
    trials_refuted: int = 0
    #: short-route searches (route shorter than II): one backward corridor
    #: sweep plus a greedy walk (the steps a layered BFS would return —
    #: hence the key, which every recorded counter table carries)
    bfs_calls: int = 0
    dfs_calls: int = 0  #: depth-first searches (route >= II, self-collisions)
    #: search volume: time-extended states a depth-first search visited,
    #: plus one per step of every short route walked (a short route that
    #: does not exist costs a sweep and no expansion); trials only — the
    #: committed candidate is not searched a second time
    expansions: int = 0
    placement_probes: int = 0  #: (time, PE) candidates probed by the placer
    trial_commits: int = 0  #: tentative commit+rollback scoring passes
    hier_attempts: int = 0  #: hier rungs' one-page attempts, run or gated off
    hier_wins: int = 0  #: one-page attempts that produced a mapping
    hier_flat_attempts: int = 0  #: flat-ladder probes run inside the hier backend
    hier_flat_wins: int = 0  #: flat fallback probes that produced a mapping
    #: II rungs skipped as proven failed / by a feasibility certificate.
    #: No ladder does either today; both keys are part of the counter
    #: table perf/wl_compile.py records per job, so they stay (as 0)
    rungs_skipped: int = 0
    rungs_pruned: int = 0
    #: (II, order) probes the placer ran, and probes answered from the
    #: owner's :class:`~repro.compiler.search.ProbeMemo` instead — whose
    #: search effort is on the books of the job that ran them
    probes_run: int = 0
    probes_shared: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def add(self, delta: dict[str, int]) -> None:
        """Fold a nested scope's totals into this instance."""
        for k, v in delta.items():
            setattr(self, k, getattr(self, k) + v)


@dataclass
class Collected:
    """What one :func:`collecting` scope received: its counters, the
    ladder reports in the order their climbs began, and its spans in the
    order they closed (a span closes after the spans it encloses)."""

    counters: MapperCounters = field(default_factory=MapperCounters)
    ladders: list = field(default_factory=list)
    spans: list[tuple[str, float, float]] = field(default_factory=list)

    def absorb(self, counters: dict[str, int], ladders, spans) -> None:
        """Roll a nested scope's (or another process's) record in."""
        with _ROLL_UP:
            self.counters.add(counters)
            self.ladders.extend(ladders)
            self.spans.extend(spans)


#: The innermost open scope of this thread / task; None outside any.
_collector: ContextVar[Collected | None] = ContextVar("repro_collector", default=None)
#: Scopes of sibling threads roll up into one enclosing scope.
_ROLL_UP = threading.Lock()
#: Where increments land outside any scope: a per-thread instance nobody
#: reads, so no process-wide total exists for two threads to race on.
_UNSCOPED = threading.local()

#: The innermost open :class:`Collected` here, or None (one context-variable
#: read: the check a hot path makes before it pays for a span).
current = _collector.get


def counters() -> MapperCounters:
    """The :class:`MapperCounters` increments should target here: the
    innermost open scope's, else this thread's unread instance."""
    scope = _collector.get()
    if scope is not None:
        return scope.counters
    unscoped = getattr(_UNSCOPED, "counters", None)
    if unscoped is None:
        unscoped = _UNSCOPED.counters = MapperCounters()
    return unscoped


@contextmanager
def collecting():
    """Open a scope; yields its :class:`Collected`, readable after the
    scope closes, when its record also rolls up into the enclosing scope."""
    enclosing = _collector.get()
    scope = Collected()
    token = _collector.set(scope)
    try:
        yield scope
    finally:
        _collector.reset(token)
        if enclosing is not None:
            enclosing.absorb(scope.counters.as_dict(), scope.ladders, scope.spans)


def absorb(record) -> None:
    """Roll *record* — anything with ``counters`` (a dict), ``ladders`` and
    ``spans``, such as a :class:`~repro.pipeline.compile.CompileStats` a
    worker process sent back — into the innermost open scope, if any."""
    scope = _collector.get()
    if scope is not None:
        scope.absorb(record.counters, record.ladders, record.spans)


class span:
    """A named interval, recorded on the scope open where it starts.

    ``with span(name) as s:`` times its block (``s.seconds`` afterwards);
    ``span(name).start()`` / ``.stop()`` time an interval that opens and
    closes in different places; ``@span(name)`` times every call of a
    function or coroutine function.  With no scope open nothing is read or
    kept and ``seconds`` stays 0.0; a decorated call then costs one
    context-variable read.
    """

    __slots__ = ("name", "seconds", "_scope", "_start")

    def __init__(self, name: str) -> None:
        self.name = name
        self.seconds = 0.0
        self._scope = None

    def start(self) -> "span":
        scope = self._scope = _collector.get()
        if scope is not None:
            self._start = perf_counter()
        return self

    def stop(self) -> None:
        scope = self._scope
        if scope is not None:
            self._scope = None
            end = perf_counter()
            self.seconds = end - self._start
            scope.spans.append((self.name, self._start, end))

    __enter__ = start

    def __exit__(self, *_exc) -> None:
        self.stop()

    def __call__(self, fn):
        name = self.name
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_await(*args, **kwargs):
                if _collector.get() is None:
                    return await fn(*args, **kwargs)
                with span(name):
                    return await fn(*args, **kwargs)

            return timed_await

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if _collector.get() is None:
                return fn(*args, **kwargs)
            with span(name):
                return fn(*args, **kwargs)

        return timed
