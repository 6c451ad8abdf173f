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

Every policy keeps the two contracts the manager relies on: ``release``
returns every other resident (a running thread never loses its pages —
the paper's runtime shrinks and expands, it does not preempt), and an
``admit`` that fails fails for every newcomer until the resident map
changes.

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

    Both hooks receive the current resident map and return the complete new
    map.  The map passed in is the manager's live bookkeeping — policies
    must treat it as read-only and build a fresh dict for their answer; the
    manager deliberately skips a defensive copy on what is the hottest call
    of a large simulation.  ``needs`` maps thread ids to their page *need*
    (the compiled kernel's ``pages_used``); policies may ignore it, or use
    it to avoid granting pages a thread cannot convert into speed.

    Two contracts, which the manager relies on:

    * :meth:`admit` returns every resident plus the newcomer, or ``None``
      when the newcomer cannot be admitted now — and then it returns
      ``None`` for every newcomer, whatever its id or need, until the
      resident map changes (the manager caches one failed probe);
    * :meth:`release` returns every resident except the departing one.

    A policy never drops a resident: the manager raises
    :class:`~repro.util.errors.ReproError` on an answer whose size differs
    from the resident map it should produce.
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
        # inlined free-span scan on (start, length) tuples: this runs ~3x
        # per simulated kernel invocation (request probe, drain admit,
        # drain exit probe), so it never materialises Allocation objects
        # for segments it does not grant
        if residents:
            best_start = best_len = 0
            cursor = 0
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
        else:
            best_start, best_len = 0, n_pages
            widest = 1
        if best_len:
            out = dict(residents)
            out[tid] = Allocation(best_start, best_len)
            return out
        if widest <= 1:  # nothing splittable; skip building the victim list
            return None
        victims = [t for t, a in residents.items() if a.length > 1]
        if not victims:
            return None
        victim = max(victims, key=lambda t: (residents[t].length, -t))
        a = residents[victim]
        keep = a.length - a.length // 2  # victim keeps the larger half
        out = dict(residents)
        out[victim] = Allocation(a.start, keep)
        out[tid] = Allocation(a.start + keep, a.length - keep)
        return out

    def release(self, n_pages, residents, tid, needs=None):
        # expand an adjacent resident over the freed segment (smallest
        # adjacent first by (length, tid), to even allocations out over
        # time); one pass builds the survivor map and finds the winner
        freed = residents[tid]
        fs = freed.start
        fe = fs + freed.length
        out: dict[int, Allocation] = {}
        grow = None
        grow_key = None
        grow_left = False
        for t, a in residents.items():
            if t == tid:
                continue
            out[t] = a
            is_left = a.start + a.length == fs
            if is_left or a.start == fe:
                key = (a.length, t)
                if grow_key is None or key < grow_key:
                    grow, grow_key, grow_left = t, key, is_left
        if grow is None:
            return out
        a = out[grow]
        if grow_left:
            out[grow] = Allocation(a.start, a.length + freed.length)
        else:
            out[grow] = Allocation(fs, a.length + freed.length)
        return out


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
                out = dict(residents)
                out[tid] = s
                return out
        return None

    def release(self, n_pages, residents, tid, needs=None):
        return {t: a for t, a in residents.items() if t != tid}


class NeedAwareHalvingPolicy(HalvingPolicy):
    """Halving, but no thread is ever granted more pages than its kernel's
    need — the grant is trimmed and the surplus stays free for the next
    arrival (§VII-B: a schedule that does not use the entire CGRA leaves
    the unused portion available, with no transformation required).

    Falls back to plain halving when needs are unknown.
    """

    def admit(self, n_pages, residents, tid, needs=None):
        out = super().admit(n_pages, residents, tid, needs)
        if out is None or not needs:
            return out
        trimmed: dict[int, Allocation] = {}
        for t, a in out.items():
            need = needs.get(t)
            if need is not None and a.length > need:
                trimmed[t] = Allocation(a.start, need)
            else:
                trimmed[t] = a
        return trimmed

    def release(self, n_pages, residents, tid, needs=None):
        out = super().release(n_pages, residents, tid, needs)
        if not needs:
            return out
        return {
            t: (
                Allocation(a.start, needs[t])
                if t in needs and a.length > needs[t]
                else a
            )
            for t, a in out.items()
        }
