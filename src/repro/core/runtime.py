"""The multithreading runtime: the OS-side CGRA manager.

"The OS is in charge of keeping track of currently running threads.  When
an additional thread is launched on the CGRA, the OS will transform the
thread for the current environment and transfer the thread into CGRA
memory." (§VII-B)

:class:`CGRAManager` owns the page pool of one paged CGRA and brokers it
between threads: arrivals are admitted through the allocation policy
(shrinking residents when needed, queueing when the array is saturated),
departures trigger expansion and admit queued threads.  A running thread
never loses its pages; only its own departure frees them.  Every allocation
change is recorded as a :class:`Reallocation` event so callers can charge
transformation/transfer overheads and drive the PageMaster transformation
for the affected threads.

The compiled facts a thread arrives with — its page need, constrained II,
and the steady-state II table of its shrunk schedules — come from a
:class:`repro.pipeline.CompiledKernel` artifact (via
:meth:`~repro.pipeline.CompiledKernel.profile`); mapping is never redone
at runtime, which is the paper's §III premise.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.core.policies import Allocation, AllocationPolicy, HalvingPolicy
from repro.util.errors import ReproError

__all__ = [
    "Reallocation",
    "ThreadHandle",
    "CGRAManager",
    "check_allocation_map",
]


def check_allocation_map(
    n_pages: int, residents: dict[int, Allocation]
) -> None:
    """Validate a resident map: every allocation contiguous (by
    construction of :class:`Allocation`), in-bounds, and disjoint.

    Shared by :class:`CGRAManager` after every change and by the
    simulation oracle (:mod:`repro.sim.oracle`), which re-checks the map
    at every recorded decision independently of the manager.  Runs on
    every manager decision of every simulated thread, so it works on
    interval endpoints — O(k log k) in the resident count, never
    materialising per-page sets.
    """
    spans = []
    for t, a in residents.items():
        end = a.start + a.length
        if end > n_pages:
            raise ReproError(f"allocation of thread {t} exceeds pool")
        spans.append((a.start, end, t))
    if len(spans) < 2:
        return
    spans.sort()
    prev_end = spans[0][1]
    for start, end, t in spans[1:]:
        if start < prev_end:
            raise ReproError(f"overlapping allocations at thread {t}")
        prev_end = end


@dataclass(frozen=True, slots=True)
class Reallocation:
    """One allocation change: a thread's page segment before/after
    (``before`` is None for an admission, ``after`` only for the departing
    thread of a release)."""

    tid: int
    before: Allocation | None
    after: Allocation | None


@dataclass(slots=True)
class ThreadHandle:
    """A thread known to the manager."""

    tid: int
    allocation: Allocation | None = None  # None -> queued


@dataclass
class CGRAManager:
    """Page pool manager for one CGRA."""

    n_pages: int
    policy: AllocationPolicy = field(default_factory=HalvingPolicy)
    # per-decision invariant checking; large-scale simulations may turn
    # this off and rely on sampled oracle verification instead (the
    # decisions themselves are identical either way)
    validate: bool = True

    def __post_init__(self) -> None:
        if self.n_pages < 1:
            raise ReproError(f"n_pages must be >= 1, got {self.n_pages}")
        self.threads: dict[int, ThreadHandle] = {}
        self._queue: deque[int] = deque()
        # the resident map is maintained incrementally on every allocation
        # change: at datacenter thread counts the manager tracks thousands
        # of queued threads, and rebuilding the map by scanning them all
        # on every decision made the simulator quadratic in thread count
        self._residents: dict[int, Allocation] = {}
        self.needs: dict[int, int] = {}
        # negative admission cache: a policy's admission failure depends
        # only on the resident map (the AllocationPolicy contract), so one
        # failed probe means every further probe fails until an allocation
        # changes.  `_rev` counts allocation changes; `_admit_fail_rev`
        # remembers the revision of the last failed probe.
        self._rev = 0
        self._admit_fail_rev = -1

    # -- queries -------------------------------------------------------------------

    @property
    def queue(self) -> list[int]:
        """Queued thread ids in admission order (a snapshot copy)."""
        return list(self._queue)

    @property
    def residents(self) -> dict[int, Allocation]:
        return dict(self._residents)

    def allocation_of(self, tid: int) -> Allocation | None:
        h = self.threads.get(tid)
        return h.allocation if h else None

    def _check_invariants(self) -> None:
        if self.validate:
            check_allocation_map(self.n_pages, self._residents)

    # -- lifecycle -----------------------------------------------------------------

    def request(self, tid: int, need: int | None = None) -> list[Reallocation]:
        """Thread *tid* wants the CGRA (optionally declaring its page
        *need*).  Returns the reallocations applied (empty if queued)."""
        if tid in self.threads:
            raise ReproError(f"thread {tid} already known to the manager")
        if need is not None and need < 1:
            raise ReproError(f"thread {tid}: page need must be >= 1, got {need}")
        self.threads[tid] = ThreadHandle(tid)
        if need is not None:
            self.needs[tid] = need
        if self._admit_fail_rev == self._rev:
            answer = None
        else:
            answer = self.policy.admit(
                self.n_pages, self._residents, tid, self.needs
            )
        if answer is None:
            self._admit_fail_rev = self._rev
            self._queue.append(tid)
            return []
        events = self._apply(answer, newcomer=tid)
        self._check_invariants()
        return events

    def release(self, tid: int) -> list[Reallocation]:
        """Thread *tid* is done with the CGRA.  Expands survivors and admits
        queued threads; returns all reallocations applied."""
        h = self.threads.pop(tid, None)
        if h is None:
            raise ReproError(f"thread {tid} unknown to the manager")
        if h.allocation is None:
            self._queue.remove(tid)
            self.needs.pop(tid, None)
            return []
        # the policy sees the departing thread still resident; its answer
        # must not name it
        answer = self.policy.release(self.n_pages, self._residents, tid, self.needs)
        del self._residents[tid]
        self.needs.pop(tid, None)
        events = self._apply(answer, departed=tid, before=h.allocation)
        # admit as many queued threads as now fit
        while self._queue:
            nxt = self._queue[0]
            if self._admit_fail_rev == self._rev:
                break
            answer = self.policy.admit(
                self.n_pages, self._residents, nxt, self.needs
            )
            if answer is None:
                self._admit_fail_rev = self._rev
                break
            self._queue.popleft()
            events.extend(self._apply(answer, newcomer=nxt))
        self._check_invariants()
        return events

    # -- internals ------------------------------------------------------------------

    def _apply(
        self,
        answer: dict[int, Allocation],
        newcomer: int | None = None,
        departed: int | None = None,
        before: Allocation | None = None,
    ) -> list[Reallocation]:
        """Apply a policy's delta: O(threads named), not O(residents).
        Segment overlap is left to :func:`check_allocation_map`."""
        self._rev += 1
        threads = self.threads
        residents = self._residents
        events: list[Reallocation] = []
        if departed is not None:
            events.append(Reallocation(departed, before, None))
        for tid, alloc in answer.items():
            h = threads.get(tid)  # the departing thread is already gone
            if h is None:
                what = "the departing" if tid == departed else "an unknown"
                raise ReproError(f"policy answer names {what} thread {tid}")
            # field compare, not dataclass __eq__ — this is the hottest
            # comparison of the whole simulation loop
            old = h.allocation
            if old is None:
                if tid != newcomer:
                    raise ReproError(
                        f"policy answer grants pages to queued thread {tid}"
                    )
            elif old.start == alloc.start and old.length == alloc.length:
                continue
            events.append(Reallocation(tid, old, alloc))
            h.allocation = alloc
            residents[tid] = alloc
        if newcomer is not None and threads[newcomer].allocation is None:
            raise ReproError(f"admit answer leaves out newcomer {newcomer}")
        return events
