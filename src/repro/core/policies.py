"""Page-allocation policies for the multithreading runtime.

The paper's experimental policy (§VII-B.1) is *halving*: "when another
thread requests access to the CGRA, the thread using the most pages is
decreased to use half as many pages and the new thread is resized to fit
into the freed portion"; when schedules do not use the entire CGRA the new
thread simply takes the unused pages, and "threads are expanded as other
threads complete".

Four policies implement :class:`AllocationPolicy`:

* :class:`HalvingPolicy` — the paper's policy, above;
* :class:`NeedAwareHalvingPolicy` — halving, but no grant exceeds the
  kernel's page need, so the surplus stays free for the next arrival;
* :class:`FairSharePolicy` — rebalance to an equal split on every arrival
  and departure (more transformations, better balance);
* :class:`StaticEqualPolicy` — fixed equal partitions sized for a declared
  maximum thread count, in the spirit of the Polymorphic Pipeline Array
  [28] comparison: no runtime reshaping at all.

Every policy answers with a *delta*: the threads whose segment is new or
different, and nothing else — a halving decision names at most two.  It
keeps the two contracts the manager relies on: a running thread never
loses its pages (the paper's runtime shrinks and expands, it does not
preempt), and an ``admit`` that fails fails for every newcomer until the
resident map changes.

Policies work on *segments*: contiguous runs of pages on the layout's
chain (contiguity is what lets the retargeter place transformed schedules
on mesh-adjacent tiles).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from repro.util.errors import ReproError

__all__ = [
    "Allocation",
    "AllocationPolicy",
    "HalvingPolicy",
    "NeedAwareHalvingPolicy",
    "FairSharePolicy",
    "StaticEqualPolicy",
]


@dataclass(frozen=True, slots=True)
class Allocation:
    """A contiguous page segment ``[start, start + length)``."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 1 or self.start < 0:
            raise ReproError(f"bad allocation {self.start}+{self.length}")

    @property
    def pages(self) -> tuple[int, ...]:
        return tuple(range(self.start, self.start + self.length))


class AllocationPolicy(Protocol):
    """Decides how page segments change on thread arrival/departure.

    Both hooks receive the current resident map (read-only) and answer
    with a *delta*: a dict naming only the threads whose segment is new or
    different.  Every resident the answer does not name keeps its segment,
    so the complete new map is a valid, slower answer.  ``needs`` maps
    thread ids to their page *need* (the compiled kernel's
    ``pages_used``); policies may ignore it, or use it to avoid granting
    pages a thread cannot convert into speed.

    Two contracts, which the manager relies on:

    * a running thread never loses its pages: an answer names residents
      only to give them a new segment, and a :meth:`release` answer never
      names the departing thread;
    * :meth:`admit` grants the newcomer a segment, or returns ``None``
      when it cannot be admitted now — and then it returns ``None`` for
      every newcomer, whatever its id or need, until the resident map
      changes (the manager caches one failed probe).

    The manager raises :class:`~repro.util.errors.ReproError` on an answer
    that names the departing thread, an unknown thread or a queued thread
    other than the newcomer, and on an admit answer without the newcomer.
    Overlapping segments are :func:`~repro.core.runtime.check_allocation_map`'s
    to catch.
    """

    def admit(
        self,
        n_pages: int,
        residents: dict[int, Allocation],
        tid: int,
        needs: dict[int, int] | None = None,
    ) -> dict[int, Allocation] | None: ...

    def release(
        self,
        n_pages: int,
        residents: dict[int, Allocation],
        tid: int,
        needs: dict[int, int] | None = None,
    ) -> dict[int, Allocation]: ...


class HalvingPolicy:
    """The paper's policy: take free pages if any, else halve the largest."""

    def admit(self, n_pages, residents, tid, needs=None):
        # a resident per page: every page is held by a one-page resident,
        # so there is no free span and nothing to halve — what the scan
        # below ends in, without sorting every segment first
        if len(residents) >= n_pages:
            return None
        # inlined free-span scan on (start, length) tuples: this runs ~3x
        # per simulated kernel invocation (request probe, drain admit,
        # drain exit probe), so it never materialises Allocation objects
        # for segments it does not grant
        best_start = best_len = cursor = 0
        widest = 1
        spans = [(a.start, a.length) for a in residents.values()]
        spans.sort()
        for start, length in spans:
            if start - cursor > best_len:
                best_start, best_len = cursor, start - cursor
            cursor = start + length
            if length > widest:
                widest = length
        if n_pages - cursor > best_len:
            best_start, best_len = cursor, n_pages - cursor
        if best_len:
            return {tid: Allocation(best_start, best_len)}
        if widest <= 1:  # nothing splittable
            return None
        # the largest by (length, -tid)
        victim = min(t for t, a in residents.items() if a.length == widest)
        a = residents[victim]
        keep = a.length - a.length // 2  # victim keeps the larger half
        return {
            victim: Allocation(a.start, keep),
            tid: Allocation(a.start + keep, a.length - keep),
        }

    def release(self, n_pages, residents, tid, needs=None):
        # expand an adjacent resident over the freed segment (smallest
        # adjacent first by (length, tid), to even allocations out over
        # time); the departing thread is adjacent to neither end of itself
        freed = residents[tid]
        fs = freed.start
        fe = fs + freed.length
        grow = grow_key = None
        grow_left = False
        for t, a in residents.items():
            is_left = a.start + a.length == fs
            if is_left or a.start == fe:
                key = (a.length, t)
                if grow_key is None or key < grow_key:
                    grow, grow_key, grow_left = t, key, is_left
        if grow is None:
            return {}
        a = residents[grow]
        start = a.start if grow_left else fs
        return {grow: Allocation(start, a.length + freed.length)}


class FairSharePolicy:
    """Equal split across residents, rebalanced on every change."""

    @staticmethod
    def _split(n_pages: int, tids: list[int]) -> dict[int, Allocation]:
        k = len(tids)
        base, extra = divmod(n_pages, k)
        out: dict[int, Allocation] = {}
        start = 0
        for idx, t in enumerate(sorted(tids)):
            length = base + (1 if idx < extra else 0)
            out[t] = Allocation(start, length)
            start += length
        return out

    def admit(self, n_pages, residents, tid, needs=None):
        if len(residents) + 1 > n_pages:
            return None
        return self._split(n_pages, list(residents) + [tid])

    def release(self, n_pages, residents, tid, needs=None):
        rest = [t for t in residents if t != tid]
        if not rest:
            return {}
        return self._split(n_pages, rest)


class StaticEqualPolicy:
    """PPA-style fixed partitioning for a declared max thread count: the
    CGRA is split into ``max_threads`` equal slices at 'compile time' and
    slices are never resized."""

    def __init__(self, max_threads: int) -> None:
        if max_threads < 1:
            raise ReproError(f"max_threads must be >= 1, got {max_threads}")
        self.max_threads = max_threads

    def _slices(self, n_pages: int) -> list[Allocation]:
        k = min(self.max_threads, n_pages)
        base, extra = divmod(n_pages, k)
        out = []
        start = 0
        for idx in range(k):
            length = base + (1 if idx < extra else 0)
            out.append(Allocation(start, length))
            start += length
        return out

    def admit(self, n_pages, residents, tid, needs=None):
        taken = {a.start for a in residents.values()}
        for s in self._slices(n_pages):
            if s.start not in taken:
                return {tid: s}
        return None

    def release(self, n_pages, residents, tid, needs=None):
        return {}


class NeedAwareHalvingPolicy(HalvingPolicy):
    """Halving, but no thread is ever granted more pages than its kernel's
    need — the grant is trimmed and the surplus stays free for the next
    arrival (§VII-B: a schedule that does not use the entire CGRA leaves
    the unused portion available, with no transformation required).

    Falls back to plain halving when needs are unknown.  Only the delta is
    trimmed: every grant was, so no resident it leaves out exceeds its need.
    """

    def admit(self, n_pages, residents, tid, needs=None):
        return _trim(super().admit(n_pages, residents, tid, needs), needs)

    def release(self, n_pages, residents, tid, needs=None):
        return _trim(super().release(n_pages, residents, tid, needs), needs)


def _trim(delta, needs):
    if not delta or not needs:
        return delta
    return {
        t: Allocation(a.start, needs[t]) if needs.get(t, a.length) < a.length else a
        for t, a in delta.items()
    }
