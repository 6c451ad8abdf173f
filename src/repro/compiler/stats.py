"""Compile-perf instrumentation for the place-and-route hot path.

The mapper's cost model is search volume: how many time-extended states the
router expands, how many (time, PE) candidates the placer probes, how many
of them are refuted before any search.  These counters are
what ``perf/wl_compile.py`` reports next to wall-clock timings, so a perf
regression shows up as a *search-volume* regression even on noisy CI
machines.

Counters are a return value, never state left behind in the process: a
compile job opens a scope (:func:`job_counters`), the hot paths increment
the scope's own thread-local instance (fetched via :func:`counters`), and
the caller reads the instance when the scope closes.  Concurrent thread
jobs therefore get *exact* per-job attribution, and nothing is shared
between threads — there is no lock and no process-wide total.

The increments live on paths executed millions of times per kernel, so
hot functions fetch the active instance once (one thread-local read) and
then do plain integer adds on it.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import asdict, dataclass

__all__ = ["MapperCounters", "counters", "job_counters"]


@dataclass
class MapperCounters:
    """Search-effort counters of one counter scope (one compile job)."""

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


#: Per-thread active counter scope.  ``threading.local`` keeps each compile
#: thread's scope private, so concurrent jobs never interleave.
_TLS = threading.local()


def counters() -> MapperCounters:
    """The :class:`MapperCounters` increments should target on this thread:
    the active :func:`job_counters` scope's instance.  Outside any scope it
    is a per-thread instance that nobody merges or reads."""
    active = getattr(_TLS, "counters", None)
    if active is None:
        active = _TLS.counters = MapperCounters()
    return active


@contextmanager
def job_counters():
    """Per-job counter scope: yields a fresh :class:`MapperCounters` that
    every increment on this thread targets for the duration.

    The yielded instance remains readable after the scope closes — that is
    the job's telemetry, attributed exactly even when many jobs compile
    concurrently on sibling threads.  Scopes nest: the enclosing instance
    is restored on exit and the closed scope's totals roll up into it.
    """
    enclosing = getattr(_TLS, "counters", None)
    local = _TLS.counters = MapperCounters()
    try:
        yield local
    finally:
        _TLS.counters = enclosing
        if enclosing is not None:
            enclosing.add(local.as_dict())
