"""Discrete-event simulation of a multithreaded CPU with a CGRA accelerator.

Implements the paper's §VII-B evaluation system in two modes, both
scheduled by one :class:`~repro.core.runtime.CGRAManager`:

* ``"single"`` — the status-quo baseline: the CGRA is single-threaded and
  non-preemptive, which is the manager with one whole-array slot
  (:class:`~repro.core.policies.StaticEqualPolicy` of one thread): a kernel
  occupies the whole array at its *unconstrained* baseline II and other
  threads queue FIFO;
* ``"multithreaded"`` — the paper's system: kernels are compiled with the
  paging constraints (paying the constrained ``II_paged``), and at runtime
  the manager space-multiplexes the array under ``SystemConfig.policy``.
  A kernel resident on *M* of the *N* pages progresses at the exact
  steady-state initiation interval of its PageMaster-transformed schedule,
  ``II_eff = steady_state_ii(N, II_paged, M)`` (``II_paged`` when it holds
  the whole array — no transformation needed).

Every thread runs on its own core (the host is a multithreaded processor),
so CPU segments always progress; only the accelerator is contended.  Time
is tracked exactly, so results are deterministic and platform-independent.

Exactness does not require :class:`~fractions.Fraction` objects
everywhere: CPU cycles, arrivals and overheads are integers, and most
initiation intervals in play are too, so the engine runs on plain machine
ints (the *fast lane*, 1-2 orders of magnitude cheaper per event) and
falls back to ``Fraction`` per value only when a division does not come
out even — a fractional steady-state II of a PageMaster shrink, or a
partial iteration left by a mid-kernel reshape.  The two lanes are
numerically identical (``Fraction(n) == n``), which the cycle-quantum
oracle (:mod:`repro.sim.oracle`) re-proves on every verified run.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from repro.core.pagemaster import steady_state_ii
from repro.core.policies import AllocationPolicy, HalvingPolicy, StaticEqualPolicy
from repro.core.runtime import CGRAManager
from repro.sim.workload import ThreadSpec
from repro.util.errors import SimulationError, WorkloadError
from repro.util.spans import span

__all__ = [
    "KernelProfile",
    "SystemConfig",
    "SystemResult",
    "improvement",
    "simulate_system",
]


# -- exact two-lane arithmetic ----------------------------------------------------
#
# Values are `int` while they can be, `Fraction` once they must be.  All
# helpers are exact; `Fraction` never loses information and an integral
# `Fraction` is collapsed back into the int lane so one fractional rate
# does not poison every later event of the run.


def _norm(x):
    """Collapse an integral Fraction back into the int fast lane."""
    if x.__class__ is Fraction and x.denominator == 1:
        return x.numerator
    return x


def _div(a, b):
    """Exact ``a / b``: int when the division comes out even."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return q if r == 0 else Fraction(a, b)
    return _norm(a / b)


def _mul(a, b):
    """Exact ``a * b``: stays in the int lane when both operands are."""
    if a.__class__ is int and b.__class__ is int:
        return a * b
    return _norm(a * b)


@dataclass(frozen=True)
class KernelProfile:
    """Compiled facts about one kernel on one CGRA configuration.

    ``pages_used`` is the kernel's page *need*: the paged compiler maps it
    onto the smallest page prefix preserving the II (§VII-B: schedules that
    do not use the entire CGRA leave the rest free).  ``wrap_used`` records
    whether the paged mapping depends on the ring-wrap link; wrap-free
    kernels shrink with the optimal grouped fold when the target page count
    divides the need.

    ``steady_ii`` optionally carries the precomputed steady-state II table
    ``{m: II_eff}`` of the PageMaster-shrunk schedule — compilation
    artifacts (:class:`repro.pipeline.CompiledKernel`) fill it in so the
    simulator never re-derives placements.  Missing entries are computed on
    demand and memoised *per profile instance*, so simulations and tests
    never share mutable state through a module global.
    """

    name: str
    ii_base: int  # unconstrained mapping on the full array
    ii_paged: int  # ring-constrained mapping on its page prefix
    pages_used: int = 1
    wrap_used: bool = False
    steady_ii: Mapping[int, Fraction] | None = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.ii_base < 1 or self.ii_paged < 1:
            raise WorkloadError(f"kernel {self.name}: IIs must be >= 1")
        if self.pages_used < 1:
            raise WorkloadError(f"kernel {self.name}: pages_used must be >= 1")
        memo = dict(self.steady_ii) if self.steady_ii is not None else {}
        object.__setattr__(self, "_steady_memo", memo)
        object.__setattr__(self, "_best_sub_memo", {})

    def steady_state_ii_of(self, m: int) -> Fraction:
        """Exact steady-state II of this kernel shrunk onto *m* pages."""
        memo: dict[int, Fraction] = self._steady_memo
        if m not in memo:
            memo[m] = steady_state_ii(
                self.pages_used, self.ii_paged, m, wrap_used=self.wrap_used
            )
        return memo[m]

    def best_steady_ii_upto(self, m: int) -> Fraction:
        """Best steady-state II over all sub-allocations of an *m*-page
        grant, ``min(steady_state_ii_of(m_eff) for m_eff in 1..m)``.

        The zigzag's efficiency is not monotone in M (e.g. 8 pages onto 5
        columns is slower than the grouped fold onto only 4), so the
        runtime picks the best sub-allocation of the granted segment.
        Memoised per (profile, m) next to ``_steady_memo`` — the scan used
        to be recomputed on every reallocation for the same allocation
        size, which made reallocation-heavy simulations O(m) per event.
        """
        if m < 1:
            raise WorkloadError(f"kernel {self.name}: allocation must be >= 1")
        memo: dict[int, Fraction] = self._best_sub_memo
        best = memo.get(m)
        if best is None:
            best = self.steady_state_ii_of(m)
            if m > 1:
                best = min(self.best_steady_ii_upto(m - 1), best)
            memo[m] = best
        return best


@dataclass
class SystemConfig:
    """Parameters of one system simulation."""

    n_pages: int
    profiles: dict[str, KernelProfile]
    policy: AllocationPolicy | None = None
    reconfig_overhead: int = 0  # cycles a thread stalls per reallocation
    # §VII-B: "the current thread is switched at an integer value of
    # II_p x N/M" — when set, a reshaped thread first completes its
    # in-flight kernel iteration at the old rate before the new allocation
    # takes effect
    switch_at_iteration_boundary: bool = False
    # per-decision allocation-map validation in the CGRAManager; scale
    # benches turn this off and sample whole runs through the oracle
    # instead (decisions and results are identical either way)
    validate_decisions: bool = True

    def __post_init__(self) -> None:
        if self.n_pages < 1:
            raise SimulationError(f"n_pages must be >= 1, got {self.n_pages}")
        if self.reconfig_overhead < 0:
            raise SimulationError(
                f"reconfig_overhead must be >= 0, got {self.reconfig_overhead}"
            )
        if self.policy is None:
            self.policy = HalvingPolicy()


@dataclass
class SystemResult:
    """Outcome of one system simulation."""

    mode: str
    makespan: float
    finish_times: dict[int, float]
    cgra_busy_page_cycles: float
    n_pages: int
    # multithreaded mode: allocation changes granted to a thread other than
    # the deciding one, on request and release decisions alike — residents
    # halved for a newcomer, neighbours expanding over a departure, queued
    # threads admitted, and same-length shifts
    reallocations: int = 0
    kernel_invocations: int = 0
    wait_cycles: float = 0.0  # total time threads spent queued for the CGRA
    arrivals: dict[int, float] = field(default_factory=dict)

    @property
    def cgra_utilization(self) -> float:
        if self.makespan <= 0:
            return 0.0
        return self.cgra_busy_page_cycles / (self.n_pages * self.makespan)

    @property
    def avg_turnaround(self) -> float:
        """Mean turnaround ``finish - arrival``, not mean finish time —
        with staggered arrivals a late thread's absolute finish says
        nothing about how long the system took to serve it."""
        if not self.finish_times:
            return 0.0
        return sum(
            finish - self.arrivals.get(tid, 0.0)
            for tid, finish in self.finish_times.items()
        ) / len(self.finish_times)

    # -- SLO-style metrics ---------------------------------------------------------

    def _turnarounds(self) -> list[float]:
        return sorted(
            finish - self.arrivals.get(tid, 0.0)
            for tid, finish in self.finish_times.items()
        )

    def turnaround_percentile(self, p: float) -> float:
        """Nearest-rank percentile of per-thread turnaround (p in [0,100]);
        deterministic — no interpolation, so the value is always one a
        thread actually experienced."""
        if not 0 <= p <= 100:
            raise SimulationError(f"percentile must be in [0,100], got {p}")
        if not self.finish_times:
            return 0.0
        vals = self._turnarounds()
        rank = max(0, math.ceil(p / 100 * len(vals)) - 1)
        return float(vals[rank])

    @property
    def turnaround_p50(self) -> float:
        return self.turnaround_percentile(50)

    @property
    def turnaround_p99(self) -> float:
        return self.turnaround_percentile(99)

    def slo_summary(self) -> dict:
        """The SLO metrics of the run, as one record."""
        return {
            "makespan": self.makespan,
            "avg_turnaround": self.avg_turnaround,
            "turnaround_p50": self.turnaround_p50,
            "turnaround_p99": self.turnaround_p99,
            "cgra_utilization": self.cgra_utilization,
            "wait_cycles": self.wait_cycles,
            "reallocations": self.reallocations,
            # a running thread never loses its pages; the two constant keys
            # stay because perf/wl_sim.py reads them
            "evictions": 0,
            "eviction_churn": 0.0,
        }


def improvement(base: SystemResult, other: SystemResult) -> float:
    """Fractional performance improvement of *other* vs *base* (makespan)."""
    if base.makespan <= 0 and other.makespan <= 0:
        return 0.0  # two empty runs are indistinguishable
    if base.makespan <= 0 or other.makespan <= 0:
        raise SimulationError(
            "improvement undefined for a degenerate zero-makespan run "
            f"(base={base.makespan}, other={other.makespan})"
        )
    return base.makespan / other.makespan - 1.0


@dataclass(slots=True)
class _ThreadState:
    # time/iteration fields are `int | Fraction`: the int fast lane with
    # exact Fraction fallback (see the module docstring)
    spec: ThreadSpec
    seg_idx: int = 0
    version: int = 0
    # active CGRA kernel bookkeeping
    iterations_left: int | Fraction = 0
    rate: int | Fraction = 1  # cycles per iteration
    last_update: int | Fraction = 0
    stall_until: int | Fraction = 0
    # end of an in-flight iteration's boundary drain, billed as it elapses
    drain_until: int | Fraction = 0
    done_at: int | Fraction = 0  # time of the live kernel_done entry
    queued_since: int | Fraction | None = None
    finished: int | Fraction | None = None


class _SystemSim:
    def __init__(self, workload, config: SystemConfig, mode: str) -> None:
        if mode not in ("single", "multithreaded"):
            raise SimulationError(f"unknown mode {mode!r}")
        self.mode = mode
        self.config = config
        self.threads = {t.tid: _ThreadState(t) for t in workload}
        self.events: list = []
        self.counter = itertools.count()
        policy = StaticEqualPolicy(1) if mode == "single" else config.policy
        self.manager = CGRAManager(
            config.n_pages, policy, validate=config.validate_decisions
        )
        self.decisions = None  # optional repro.sim.trace.DecisionTrace
        # initiation intervals per (kernel, allocation size), resolved
        # once: the integral-config detection of the fast lane — an
        # integral II enters the run as an int, a fractional steady-state
        # II as the exact Fraction, and no Fraction is ever constructed
        # per event for either
        self._rates: dict[tuple[str, int], int | Fraction] = {}
        # accumulated exactly; converted to float once at the end (a
        # float running sum would make the totals depend on accumulation
        # order)
        self.busy_page_cycles: int | Fraction = 0
        self.wait_cycles: int | Fraction = 0
        self.result = SystemResult(
            mode=mode,
            makespan=0.0,
            finish_times={},
            cgra_busy_page_cycles=0.0,
            n_pages=config.n_pages,
            arrivals={t.tid: float(t.arrival) for t in workload},
        )

    # -- helpers --------------------------------------------------------------------

    def _profile(self, kernel: str) -> KernelProfile:
        try:
            return self.config.profiles[kernel]
        except KeyError:
            raise SimulationError(f"no profile for kernel {kernel!r}") from None

    def _ii_eff(self, kernel: str, m: int) -> int | Fraction:
        """Initiation interval of *kernel* on an *m*-page allocation.

        An allocation at least as large as the kernel's page need runs the
        compiled schedule untransformed ("no transformation needs to be
        performed", §VII-B); smaller allocations run the PageMaster-shrunk
        schedule at its exact steady-state II.  Memoised per (kernel, m)
        with integral IIs normalised into the int fast lane.
        """
        key = (kernel, m)
        rate = self._rates.get(key)
        if rate is None:
            prof = self._profile(kernel)
            if self.mode == "single":
                rate = prof.ii_base
            elif m >= prof.pages_used:
                rate = prof.ii_paged
            else:
                rate = _norm(prof.best_steady_ii_upto(m))
            self._rates[key] = rate
        return rate

    def _push(self, time, kind: str, tid: int) -> None:
        st = self.threads[tid]
        heapq.heappush(
            self.events, (time, next(self.counter), st.version, kind, tid)
        )

    # -- thread progression ----------------------------------------------------------

    def _start_segment(self, tid: int, now, st: "_ThreadState | None" = None) -> None:
        if st is None:
            st = self.threads[tid]
        if st.seg_idx >= len(st.spec.segments):
            st.finished = now
            self.result.finish_times[tid] = float(now)
            return
        seg = st.spec.segments[st.seg_idx]
        if seg.kind == "cpu":
            self._push(now + seg.cycles, "cpu_done", tid)
        else:
            self.result.kernel_invocations += 1
            self._request(tid, now)

    # -- the CGRA ----------------------------------------------------------------------

    def _request(self, tid: int, now) -> None:
        st = self.threads[tid]
        seg = st.spec.segments[st.seg_idx]
        st.iterations_left = seg.trip
        st.queued_since = now
        events = self.manager.request(
            tid, need=self._profile(seg.kernel).pages_used
        )
        if self.decisions is not None:
            self.decisions.record(
                now, "request", tid, events, self.manager.residents
            )
        # an admission is the request's own event; with none the thread
        # stays queued until a release admits it
        self._apply_reallocations(events, now, tid)

    def _schedule_completion(self, tid: int, now) -> None:
        st = self.threads[tid]
        st.version += 1
        st.done_at = max(now, st.stall_until) + _mul(st.iterations_left, st.rate)
        self._push(st.done_at, "kernel_done", tid)

    def _progress(self, st: _ThreadState, now, pages: int) -> None:
        """Bill a running kernel's progress on *pages* pages up to *now*:
        any boundary drain still running, then whole iterations once the
        stall is over."""
        if st.drain_until > st.last_update:
            self.busy_page_cycles += _mul(
                min(now, st.drain_until) - st.last_update, pages
            )
        start = max(st.last_update, st.stall_until)
        if now > start and st.rate > 0:
            left = st.iterations_left - _div(now - start, st.rate)
            st.iterations_left = left if left > 0 else 0
            self.busy_page_cycles += _mul(now - start, pages)
        st.last_update = now

    def _apply_reallocations(self, events, now, decider: int) -> None:
        """Apply one manager decision's reallocations to the threads.

        In multithreaded mode every event of a thread other than *decider*
        counts as one reallocation (the baseline's queue-head admissions
        stay uncounted).  The decider's own event is its admission (applied
        here) or its departure (skipped: the caller advances the thread).

        A decision can name a thread several times (a neighbour expands
        over a departure and is halved again for the queue head; a queued
        thread is admitted and then halved by the next admission), so each
        thread is applied once, from its net change: its first ``before``,
        its last ``after``, and whether it was reshaped, in the order of its
        last event (the tie-break order applying event by event gives the
        live heap entries).  That is exactly what applying every event in
        turn gives, which the oracle does (DESIGN §8): progress is billed
        and the boundary drain taken at the first reshape only, since the
        next one finds nothing elapsed and a whole number of iterations
        left; the drain is billed as it elapses, so on the last segment;
        the overhead stall is a ``max``, so charging it again changes
        nothing; and the rate is the last segment's.  With no overhead and
        no boundary switch, a resident whose length is unchanged keeps its
        rate and so its scheduled completion: it is not re-billed, only
        given a fresh heap entry at ``done_at``.
        """
        reallocs = 0
        net: dict[int, tuple] = {}
        for ev in events:
            tid = ev.tid
            if tid != decider:
                reallocs += 1
            elif ev.after is None:
                continue  # the decider's departure
            prev = net.pop(tid, None)
            if prev is None:
                net[tid] = (ev.before, ev.after, ev.before is not None)
            else:
                net[tid] = (prev[0], ev.after, True)
        if self.mode == "multithreaded":
            self.result.reallocations += reallocs
        cfg = self.config
        keep_same_length = not (
            cfg.reconfig_overhead or cfg.switch_at_iteration_boundary
        )
        for tid, (before, after, reshaped) in net.items():
            st = self.threads[tid]
            if before is None:
                self._activate(tid, st, now, after, reshaped)
            elif keep_same_length and before.length == after.length:
                st.version += 1
                self._push(st.done_at, "kernel_done", tid)
            else:
                self._reshape(tid, st, now, before, after)

    def _activate(self, tid: int, st: _ThreadState, now, alloc, reshaped) -> None:
        """Start a queued thread's kernel on *alloc*, the last segment this
        decision gave it; *reshaped* when the decision moved it again after
        admitting it, which stalls it like any reshape."""
        self.wait_cycles += now - st.queued_since
        st.queued_since = None
        st.rate = self._ii_eff(st.spec.segments[st.seg_idx].kernel, alloc.length)
        st.last_update = now
        if reshaped and self.config.reconfig_overhead:
            st.stall_until = max(st.stall_until, now + self.config.reconfig_overhead)
        self._schedule_completion(tid, now)

    def _reshape(self, tid: int, st: _ThreadState, now, before, after) -> None:
        """Reshape a running thread from *before* to *after*: bill progress
        at the old allocation up to *now*, charge the reconfiguration
        stall, and reschedule its completion at the new rate."""
        self._progress(st, now, before.length)
        cfg = self.config
        if cfg.switch_at_iteration_boundary and st.iterations_left > 0:
            # finish the in-flight iteration at the old rate before the
            # transformed schedule takes over.  A fraction in flight means
            # progress was billed just now, so no stall is running and the
            # drain starts now; it is billed as it elapses, on the pages
            # the thread holds meanwhile (its old segment may already
            # belong to the thread that forced this reshape)
            whole = math.floor(st.iterations_left)
            frac = st.iterations_left - whole
            if frac > 0:
                st.stall_until = st.drain_until = now + _mul(frac, st.rate)
                st.iterations_left = whole
        st.rate = self._ii_eff(st.spec.segments[st.seg_idx].kernel, after.length)
        if cfg.reconfig_overhead:
            # the overhead overlaps an iteration-boundary drain: take the
            # later of the two stalls, never overwrite (a plain assignment
            # clobbered the boundary stall and double-ran the already-billed
            # drain window)
            st.stall_until = max(st.stall_until, now + cfg.reconfig_overhead)
        self._schedule_completion(tid, now)

    # -- event loop -------------------------------------------------------------------

    def run(self) -> SystemResult:
        now = 0
        # batched arrival wheel: all arrivals are sorted up front (stable,
        # so simultaneous arrivals keep workload order — the same order
        # init-time heap pushes gave them) and fed to the loop from a
        # cursor; the heap holds only live completion events, not one
        # entry per not-yet-arrived thread
        wheel = sorted(
            ((st.spec.arrival, tid) for tid, st in self.threads.items()),
            key=lambda entry: entry[0],
        )
        ai = 0
        while ai < len(wheel) and wheel[ai][0] <= 0:
            self._start_segment(wheel[ai][1], now)
            ai += 1
        heap = self.events
        threads = self.threads
        heappop = heapq.heappop
        n_arrivals = len(wheel)
        while heap or ai < n_arrivals:
            # arrivals precede heap events at the same instant, matching
            # the arrival-events-pushed-first order of the unbatched loop
            if ai < n_arrivals and (not heap or wheel[ai][0] <= heap[0][0]):
                now = wheel[ai][0]
                tid = wheel[ai][1]
                ai += 1
                self._start_segment(tid, now)
                continue
            time, _, version, kind, tid = heappop(heap)
            st = threads[tid]
            if kind == "kernel_done" and version != st.version:
                continue  # stale completion, superseded by a reallocation
            now = time
            if kind == "cpu_done":
                st.seg_idx += 1
                self._start_segment(tid, now, st)
            elif kind == "kernel_done":
                self._progress(
                    st, now, self.manager.threads[tid].allocation.length
                )
                if st.iterations_left > 0:
                    # numeric guard; with exact fractions this only
                    # happens for stale events filtered above
                    self._schedule_completion(tid, now)
                    continue
                events = self.manager.release(tid)
                if self.decisions is not None:
                    self.decisions.record(
                        now, "release", tid, events, self.manager.residents
                    )
                st.seg_idx += 1
                self._apply_reallocations(events, now, tid)
                self._start_segment(tid, now, st)
            else:
                raise SimulationError(f"unknown event kind {kind!r}")
        unfinished = [t for t, s in self.threads.items() if s.finished is None]
        if unfinished:
            raise SimulationError(f"threads never finished: {unfinished}")
        self.result.makespan = max(self.result.finish_times.values(), default=0.0)
        self.result.cgra_busy_page_cycles = float(self.busy_page_cycles)
        self.result.wait_cycles = float(self.wait_cycles)
        return self.result


@span("sim.simulate_system")
def simulate_system(
    workload: list[ThreadSpec],
    config: SystemConfig,
    mode: str,
    *,
    decisions=None,
) -> SystemResult:
    """Simulate *workload* on the system in the given mode.

    ``decisions`` (a :class:`repro.sim.trace.DecisionTrace`) records every
    allocation decision with exact times: the run's one record.  The
    cycle-quantum oracle (:func:`repro.sim.oracle.run_oracle`) replays it
    to re-derive the result independently, and
    :meth:`repro.sim.trace.SystemTimeline.replay` renders it as the
    thread-level timeline.  Recording changes no simulated number.
    """
    sim = _SystemSim(workload, config, mode)
    sim.decisions = decisions
    return sim.run()
