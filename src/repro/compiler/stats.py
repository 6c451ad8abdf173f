"""Compile-perf instrumentation for the place-and-route hot path.

The mapper's cost model is search volume: how many time-extended states the
router expands, how many (time, PE) candidates the placer probes, how often
the memoized routing tables answer without a search.  These counters are
what ``python -m repro.bench compile-speed`` prints next to wall-clock
timings, so a perf regression shows up as a *search-volume* regression even
on noisy CI machines.

Counting is two-level.  The process-wide totals (:data:`COUNTERS`,
:data:`SEARCH`) stay cumulative, as before.  On top of them sits a
*per-job counter context* (:func:`job_counters`): a compile job opens a
scope, the hot paths increment the scope's own thread-local instances
(fetched via :func:`counters` / :func:`search_stats`), and the scope
merges its totals into the process-wide singletons — under a lock — when
it closes.  That gives ``compile_many``'s concurrent thread jobs *exact*
per-job attribution (no interleaved snapshot/delta windows) while the
cumulative totals remain exactly what they always were.

The increments live on paths executed millions of times per kernel, so
hot functions fetch the active instance once (one thread-local read) and
then do plain integer adds on it — no locks and no indirection inside the
inner loops; the only lock is taken once per job, at merge time.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = [
    "MapperCounters",
    "PhaseTimes",
    "SearchStats",
    "COUNTERS",
    "SEARCH",
    "counters",
    "search_stats",
    "job_counters",
    "merge_counter_delta",
    "merge_search_delta",
]


@dataclass
class PhaseTimes:
    """Wall-clock seconds spent per compile phase (one compile_job)."""

    base_map: float = 0.0
    paged_map: float = 0.0

    @property
    def total(self) -> float:
        return self.base_map + self.paged_map


@dataclass
class MapperCounters:
    """Cumulative search-effort counters for this process."""

    #: route queries that reached the router (find_route_ids); edges of
    #: candidates the placer refuted before claiming never issue one
    route_calls: int = 0
    routes_refuted: int = 0  #: queries answered None by the reachability filter, no DFS run
    trials_refuted: int = 0  #: placer candidates rejected by the filter before any claim
    bfs_calls: int = 0  #: layered-BFS searches (route shorter than II)
    dfs_calls: int = 0  #: depth-first searches (route >= II, self-collisions)
    expansions: int = 0  #: time-extended states expanded across both searches
    placement_probes: int = 0  #: (time, PE) candidates probed by the placer
    trial_commits: int = 0  #: tentative commit+rollback scoring passes
    target_cache_hits: int = 0  #: memoized per-(dst, hop-filter) goal tables reused
    move_cache_hits: int = 0  #: memoized per-(pe, hint) move orderings reused
    hier_attempts: int = 0  #: hierarchical (cluster-then-place) probes run
    hier_wins: int = 0  #: hierarchical probes that produced a mapping
    hier_flat_attempts: int = 0  #: flat-ladder probes run inside the hier backend
    hier_flat_wins: int = 0  #: flat fallback probes that produced a mapping
    rungs_skipped: int = 0  #: II rungs skipped as already proven failed (memoized)
    #: II rungs skipped by a feasibility certificate.  No backend prunes a
    #: rung today; the key is part of the counter table the benchmark and
    #: BENCH_compile_speed.json record per job, so it stays reported (as 0)
    rungs_pruned: int = 0

    def snapshot(self) -> "MapperCounters":
        return MapperCounters(**asdict(self))

    def delta(self, since: "MapperCounters") -> dict[str, int]:
        """Counter increments since *since*, as a plain dict."""
        now = asdict(self)
        then = asdict(since)
        return {k: now[k] - then[k] for k in now}

    def reset(self) -> None:
        for k in asdict(self):
            setattr(self, k, 0)

    def as_dict(self) -> dict[str, int]:
        return asdict(self)

    def add(self, delta: dict[str, int]) -> None:
        """Fold a counter delta (from a probe worker process) into this
        instance, so search effort spent in speculative probes still shows
        up in the parent's totals."""
        for k, v in delta.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + v)


@dataclass
class SearchStats:
    """Cumulative speculative-II-search effort for this process.

    Tracks what the ladder driver (:func:`repro.compiler.search.
    climb_ladder`) did: how many (II, attempt) probes it launched, how
    many a landed success cancelled before they started, and how the probe
    wall clock splits into *useful* seconds (probes at or below the
    canonical winner, which an in-order walk also runs) and *wasted*
    seconds (speculation that overshot the winner — always zero for the
    inline executor).  ``ladders`` counts climbs raced over a process
    pool; ``serial_ladders`` counts climbs walked inline.
    """

    ladders: int = 0  #: ladders raced over a process pool
    serial_ladders: int = 0  #: ladders walked inline in the calling thread
    probes_launched: int = 0  #: (II, attempt) probes submitted to an executor
    probes_completed: int = 0  #: probes that ran to a success/fail verdict
    probes_cancelled: int = 0  #: probes cancelled before they started
    probes_wasted: int = 0  #: completed probes above the winner (discarded)
    useful_seconds: float = 0.0  #: probe seconds at/below the canonical winner
    wasted_seconds: float = 0.0  #: probe seconds above the winner (speculation)

    @property
    def speculation_efficiency(self) -> float:
        """Fraction of probe wall clock the canonical reduction kept."""
        total = self.useful_seconds + self.wasted_seconds
        return self.useful_seconds / total if total > 0 else 1.0

    def snapshot(self) -> "SearchStats":
        return SearchStats(**asdict(self))

    def delta(self, since: "SearchStats") -> dict[str, float]:
        """Stat increments since *since*, as a plain dict (ints stay int)."""
        now = asdict(self)
        then = asdict(since)
        return {k: now[k] - then[k] for k in now}

    def add(self, delta: dict[str, float]) -> None:
        for k, v in delta.items():
            if hasattr(self, k):
                setattr(self, k, getattr(self, k) + v)

    def reset(self) -> None:
        for k in asdict(self):
            setattr(self, k, type(getattr(self, k))(0))

    def as_dict(self) -> dict[str, float]:
        return asdict(self)


#: The process-wide counter totals (merged from finished job contexts, or
#: incremented directly when no context is active).
COUNTERS = MapperCounters()

#: The process-wide speculative-search totals.
SEARCH = SearchStats()

#: Per-thread active counter context.  ``threading.local`` keeps each
#: compile thread's scope private, so concurrent jobs never interleave.
_TLS = threading.local()

#: Guards every merge into the process-wide singletons: job contexts close
#: on their own threads, and probe done-callbacks bill waste from whatever
#: thread the executor runs them on.
_MERGE_LOCK = threading.Lock()


def counters() -> MapperCounters:
    """The :class:`MapperCounters` increments should target on this thread:
    the active job context's instance, else the process-wide totals."""
    active = getattr(_TLS, "counters", None)
    return COUNTERS if active is None else active


def search_stats() -> SearchStats:
    """The :class:`SearchStats` the ladder driver should update on this
    thread: the active job context's instance, else the totals."""
    active = getattr(_TLS, "search", None)
    return SEARCH if active is None else active


def merge_counter_delta(delta: dict[str, int]) -> None:
    """Fold a counter delta straight into the process-wide totals (used by
    done-callbacks that run outside any job context)."""
    with _MERGE_LOCK:
        COUNTERS.add(delta)


def merge_search_delta(delta: dict[str, float]) -> None:
    """Fold a search-stat delta straight into the process-wide totals."""
    with _MERGE_LOCK:
        SEARCH.add(delta)


@contextmanager
def job_counters():
    """Per-job counter scope: yields fresh ``(MapperCounters, SearchStats)``
    instances that every increment on this thread targets for the duration,
    then merges them into the process-wide totals under the lock.

    Scopes nest (the previous context is restored on exit), and the yielded
    instances remain readable after the scope closes — that is the per-job
    delta, attributed exactly even when many jobs compile concurrently on
    sibling threads.
    """
    prev_counters = getattr(_TLS, "counters", None)
    prev_search = getattr(_TLS, "search", None)
    local_counters = MapperCounters()
    local_search = SearchStats()
    _TLS.counters = local_counters
    _TLS.search = local_search
    try:
        yield local_counters, local_search
    finally:
        _TLS.counters = prev_counters
        _TLS.search = prev_search
        if prev_counters is not None:
            # nested scope: roll up into the enclosing job only — the
            # outermost scope carries the totals to COUNTERS exactly once
            prev_counters.add(local_counters.as_dict())
            prev_search.add(local_search.as_dict())
        else:
            with _MERGE_LOCK:
                COUNTERS.add(local_counters.as_dict())
                SEARCH.add(local_search.as_dict())
