"""The PageMaster transformation (§VI-D, Algorithm 1).

Reschedules an application mapped on *N* pages (initiation interval
``II_p``) onto *M <= N* page columns at runtime, preserving every ring
dependency, in time linear in the number of page instances placed.

Terminology used here:

* a **batch** is one cycle of the original schedule: batch *b* executes the
  page instances ``{p_(n, b mod II_p) : 0 <= n < N}``.  The transformation
  places batches in order; batch placements only depend on the previous
  batch, which is what makes ``PlacePage`` constant-time per page.
* a **slot** of the target is ``(column, time)``; a column is one page-sized
  tile of the shrunken allocation, columns 0..M-1 being chain-adjacent.

The algorithm follows the paper:

1. **Schedule initialization** — batch 0 is laid out as a zigzag
   "scheduling line": page 0 at column 0, its ring neighbours fanning
   outwards (``p_(N-1)`` at column 1, ``p_1`` at column 2, ...), so every
   ring-adjacent pair sits within two columns.
   When N > M the leftover pages are placed as *tails* that extend the two
   ends of the line downwards in the end columns.
2. **PlacePage** — every later instance is placed by looking up the columns
   ``d1`` (of ``p_(n-1, b-1)``) and ``d2`` (of ``p_(n, b-1)``) and applying
   the paper's three cases: two hops apart -> the middle column; one hop
   apart -> the boundary column; zero hops -> the emptier adjacent column.
   The time is the earliest free slot in the chosen column after both
   dependencies have executed.  Pages within a batch are placed in reverse
   initialization order.

Because the column pattern evolves from batch to batch, the transformed
schedule is not a plain modulo schedule with one period; it is *eventually
periodic* (the placement state provably revisits itself since it lives in a
finite space).  :class:`PageMaster` detects the period and reports the
steady-state initiation interval as an exact fraction —
``ii_q_effective = II_p * rows_per_batch`` — which equals the resource
bound ``II_p * N / M`` whenever the placement wastes no slots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from repro.util.errors import TransformError

__all__ = ["PagePlacement", "PageMaster", "steady_state_ii"]


@dataclass
class PagePlacement:
    """Result of a PageMaster run.

    ``slots[(n, b)] = (col, time)``: page *n*'s instance of batch *b*.
    ``strategy`` is ``"grouped"`` for the optimal stacked fold (legal when
    M divides N and the schedule uses no ring-wrap dependency — the
    generalization of Fig. 6) or ``"zigzag"`` for the paper's Algorithm 1,
    whose placements additionally satisfy the wrap dependency.
    """

    n_pages: int
    ii_p: int
    m: int
    slots: dict[tuple[int, int], tuple[int, int]] = field(default_factory=dict)
    batches: int = 0
    init_order: tuple[int, ...] = ()
    irregular: int = 0
    period_batches: int | None = None
    period_rows: int | None = None
    strategy: str = "zigzag"

    def col(self, n: int, b: int) -> int:
        return self.slots[(n, b)][0]

    def time(self, n: int, b: int) -> int:
        return self.slots[(n, b)][1]

    @property
    def makespan(self) -> int:
        """Total rows used (last placement time + 1)."""
        if not self.slots:
            return 0
        return max(t for (_, t) in self.slots.values()) + 1

    def rows_per_batch(self) -> Fraction:
        """Steady-state rows consumed per original cycle."""
        if self.period_batches:
            return Fraction(self.period_rows, self.period_batches)
        if self.batches == 0:
            return Fraction(0)
        # no period detected within the horizon: report the empirical rate
        return Fraction(self.makespan, self.batches)

    def ii_q_effective(self) -> Fraction:
        """Steady-state initiation interval of the transformed schedule."""
        return self.rows_per_batch() * self.ii_p

    def ii_q_bound(self) -> Fraction:
        """Resource lower bound ``II_p * N / M`` (tighter than the paper's
        ``II_p * floor(N/M)``)."""
        return Fraction(self.n_pages * self.ii_p, self.m)

    def efficiency(self) -> float:
        """Bound / achieved: 1.0 means no target slot is wasted."""
        ach = self.ii_q_effective()
        return float(self.ii_q_bound() / ach) if ach else 0.0

    def summary(self) -> str:
        return (
            f"PageMaster N={self.n_pages} II_p={self.ii_p} -> M={self.m}: "
            f"II_q={float(self.ii_q_effective()):.3f} "
            f"(bound {float(self.ii_q_bound()):.3f}, "
            f"eff {self.efficiency():.2f}, "
            f"period {self.period_batches} batches / {self.period_rows} rows, "
            f"{self.irregular} irregular)"
        )


class PageMaster:
    """Places batches of an (N, II_p) page schedule onto M columns.

    ``wrap_used`` declares whether the schedule actually depends on the
    ring-wrap link (page N-1 feeding page 0).  Our paged compiler restricts
    dependencies to a chain (a subset of the ring, see
    :meth:`~repro.core.paging.PageLayout.ring_hop_allowed`), so the default
    is False, which unlocks the *grouped fold* whenever M divides N: ring
    pages are split into M contiguous groups of K = N/M, column *x* hosts
    group *x* permanently, and each batch lays group members out in K
    consecutive rows — every target slot is filled, achieving the resource
    bound ``II_q = II_p * N / M`` exactly (Fig. 6 is the M=1 case).  For
    non-dividing M (or when the wrap link is live) the paper's Algorithm 1
    zigzag placement is used.
    """

    def __init__(
        self,
        n_pages: int,
        ii_p: int,
        m: int,
        *,
        wrap_used: bool = False,
    ) -> None:
        self.wrap_used = wrap_used
        if n_pages < 1:
            raise TransformError(f"N must be >= 1, got {n_pages}")
        if ii_p < 1:
            raise TransformError(f"II_p must be >= 1, got {ii_p}")
        if not 1 <= m <= n_pages:
            raise TransformError(
                f"target M={m} must satisfy 1 <= M <= N={n_pages}"
            )
        self.n = n_pages
        self.ii_p = ii_p
        self.m = m

    # -- public ------------------------------------------------------------------

    def place(self, batches: int | None = None) -> PagePlacement:
        """Run the transformation for *batches* original cycles (default:
        long enough to detect the steady-state period; 0 places nothing)."""
        if batches is not None and batches < 0:
            raise TransformError(f"batches must be >= 0, got {batches}")
        if not self.wrap_used and self.n % self.m == 0:
            return self._place_grouped(batches)
        if batches == 0:
            return PagePlacement(self.n, self.ii_p, self.m)
        detect = batches is None
        horizon = batches if batches is not None else 8 * self.n * self.ii_p + 64
        result = PagePlacement(self.n, self.ii_p, self.m)
        used: list[set[int]] = [set() for _ in range(self.m)]
        fill: list[int] = [0] * self.m  # pages scheduled per column

        col_prev, time_prev, init_order = self._init_batch(result, used, fill)
        result.init_order = tuple(init_order)
        reverse_order = tuple(reversed(init_order))
        states: dict = {}

        b = 1
        while b < horizon:
            col_snap = dict(col_prev)
            time_snap = dict(time_prev)
            for n in reverse_order:
                d1 = col_snap[(n - 1) % self.n]
                d2 = col_snap[n]
                t1 = time_snap[(n - 1) % self.n]
                t2 = time_snap[n]
                col = self._choose_column(d1, d2, fill, result)
                t = self._next_free(used[col], max(t1, t2))
                self._put(result, used, fill, n, b, col, t)
                col_prev[n] = col
                time_prev[n] = t
            result.batches = b + 1
            if detect:
                state, base = self._state_key(col_prev, time_prev, used)
                if state in states:
                    b0, base0 = states[state]
                    result.period_batches = b - b0
                    result.period_rows = base - base0
                    break
                states[state] = (b, base)
            b += 1
        return result

    # -- phases ------------------------------------------------------------------

    def _place_grouped(self, batches: int | None) -> PagePlacement:
        """Optimal stacked fold for M | N without a live wrap dependency:
        ``col(n) = n // K``, ``time(n, b) = b*K + (n mod K)``, K = N/M."""
        k = self.n // self.m
        count = batches if batches is not None else 2  # period is 1 batch
        result = PagePlacement(
            self.n,
            self.ii_p,
            self.m,
            strategy="grouped",
            period_batches=1,
            period_rows=k,
        )
        for b in range(count):
            for n in range(self.n):
                result.slots[(n, b)] = (n // k, b * k + (n % k))
        result.batches = count
        result.init_order = tuple(range(self.n))
        return result

    def _init_batch(self, result, used, fill):
        """Batch 0: zigzag scheduling line plus tails (paper §VI-D.1)."""
        N, M = self.n, self.m
        line: list[int] = [0]
        d = 1
        while len(line) < min(N, M):
            line.append(-d % N)
            if len(line) < min(N, M):
                line.append(d % N)
            d += 1
        col_prev: dict[int, int] = {}
        time_prev: dict[int, int] = {}
        for c, n in enumerate(line):
            self._put(result, used, fill, n, 0, c, 0)
            col_prev[n] = c
            time_prev[n] = 0
        init_order = list(line)
        if N > M:
            minus = self._minus_count(len(line))
            plus = len(line) - 1 - minus
            rem = [(plus + k) % N for k in range(1, N - len(line) + 1)]
            plus_nb = plus % N  # growth front on the + side
            minus_nb = -minus % N
            take_plus = True
            while rem:
                if len(rem) == 1:
                    n = rem.pop()
                    d1 = col_prev[plus_nb] if take_plus else col_prev[minus_nb]
                    d2 = col_prev[minus_nb] if take_plus else col_prev[plus_nb]
                    t_after = max(time_prev[plus_nb], time_prev[minus_nb])
                    col = self._choose_column(d1, d2, fill, result)
                else:
                    if take_plus:
                        n = rem.pop(0)
                        col = col_prev[plus_nb]
                        t_after = time_prev[plus_nb]
                        plus_nb = n
                    else:
                        n = rem.pop()
                        col = col_prev[minus_nb]
                        t_after = time_prev[minus_nb]
                        minus_nb = n
                t = self._next_free(used[col], t_after)
                self._put(result, used, fill, n, 0, col, t)
                col_prev[n] = col
                time_prev[n] = t
                init_order.append(n)
                take_plus = not take_plus
        result.batches = 1
        return col_prev, time_prev, init_order

    @staticmethod
    def _minus_count(line_len: int) -> int:
        """How many minus-side pages the zigzag line of this length holds."""
        return line_len // 2

    def _choose_column(self, d1: int, d2: int, fill, result) -> int:
        """The three PlacePage cases (Algorithm 1)."""
        M = self.m
        diff = abs(d1 - d2)
        if diff > 2:
            raise TransformError(
                f"dependency columns {d1} and {d2} more than two hops apart: "
                f"placement invariant broken"
            )
        if diff == 2:
            return (d1 + d2) // 2
        if diff == 1:
            if d1 == 0 or d2 == 0:
                return 0
            if d1 == M - 1 or d2 == M - 1:
                return M - 1
            # The paper states this case only arises at the boundary; fall
            # back to the emptier of the two columns and count it.
            result.irregular += 1
            return d1 if fill[d1] <= fill[d2] else d2
        # zero hops apart
        cands = [c for c in (d1 - 1, d1 + 1) if 0 <= c < M]
        if not cands:  # M == 1
            return d1
        return min(cands, key=lambda c: (fill[c], c))

    # -- helpers -------------------------------------------------------------------

    @staticmethod
    def _next_free(used: set[int], after: int) -> int:
        t = after + 1
        while t in used:
            t += 1
        return t

    def _put(self, result, used, fill, n, b, col, t) -> None:
        if not 0 <= col < self.m:
            raise TransformError(f"column {col} out of range [0,{self.m})")
        if t in used[col]:
            raise TransformError(f"slot (col {col}, time {t}) double-booked")
        used[col].add(t)
        fill[col] += 1
        result.slots[(n, b)] = (col, t)

    def _state_key(self, col_prev, time_prev, used):
        """Canonical placement state for period detection.

        Future placements depend only on the last batch's columns/times and
        the free structure of each column above the oldest live time; shift
        everything by that base so translated states compare equal.
        """
        base = min(time_prev.values())
        cols = tuple(col_prev[n] for n in range(self.n))
        times = tuple(time_prev[n] - base for n in range(self.n))
        frontier = tuple(
            tuple(sorted(t - base for t in used[c] if t >= base))
            for c in range(self.m)
        )
        return (cols, times, frontier), base


@lru_cache(maxsize=1024)
def steady_state_ii(
    n_pages: int,
    ii_p: int,
    m: int,
    *,
    wrap_used: bool = False,
) -> Fraction:
    """Steady-state II of the PageMaster-transformed schedule, exact.  A
    pure function of its four arguments, so each distinct call places
    once per process."""
    return PageMaster(n_pages, ii_p, m, wrap_used=wrap_used).place().ii_q_effective()
