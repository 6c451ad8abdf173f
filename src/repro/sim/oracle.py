"""Differential simulation oracle for the §VII-B system model.

The event-driven simulator in :mod:`repro.sim.system` is fast because it
jumps straight between completion events, versioning away stale heap
entries.  That is exactly the kind of cleverness that hides timing bugs,
so this module provides the "re-prove it the dumb way" counterpart that
:mod:`repro.analysis` gave compiled artifacts:

* :func:`run_oracle` — a **cycle-quantum reference simulator**: a
  deliberately naive re-implementation of the §VII-B semantics that
  advances time in fixed :class:`~fractions.Fraction` quanta (the GCD of
  every rate and overhead in play, :func:`quantum_for`).  It does not
  re-run the allocation policy; it replays the *same*
  :class:`~repro.sim.trace.DecisionTrace` the event simulator recorded —
  the policy outputs are inputs, the timing arithmetic is re-derived from
  scratch.  Every decision is validated against the oracle's own view:
  a ``release`` must land exactly on the instant the oracle's integration
  says the kernel completed, a ``request`` exactly when the thread's CPU
  segment drained, and the post-decision allocation map must match and
  satisfy :func:`~repro.core.runtime.check_allocation_map`.

  The quantum grid alone is *not* sufficient for exactness: once a
  reallocation leaves a fractional iteration in flight, completion times
  pick up denominators that are products of rate numerators and fall off
  any fixed lattice.  The oracle therefore refines the grid with the
  exact breakpoints it can compute locally (CPU drains, kernel
  completions, arrivals, decision times) and integrates piecewise-linear
  progress in exact fractions between them — naive, slow, and exact.

* :func:`check_invariants` — a conservation checker over any
  :class:`~repro.sim.system.SystemResult`: busy-page capacity, finish
  after arrival, makespan, work conservation against the workload, and,
  given the run's :class:`~repro.sim.trace.DecisionTrace`, over the
  timeline replayed from it: wait-cycle identity (queued intervals sum
  to ``wait_cycles``), no progress while queued, allocation-map validity
  at every instant.

* :func:`verify_system` — the one-stop entry used by the tests and the
  ``python -m repro.bench sim-oracle`` fuzz sweep: simulate, replay,
  compare bit-for-bit, check invariants, raise
  :class:`~repro.util.errors.OracleViolation` on any disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

from repro.core.policies import Allocation
from repro.core.runtime import check_allocation_map
from repro.sim.system import SystemConfig, SystemResult, simulate_system
from repro.sim.trace import Decision, DecisionTrace, SystemTimeline
from repro.sim.workload import ThreadSpec
from repro.util.errors import OracleViolation, ReproError, SimulationError

__all__ = [
    "OracleResult",
    "fraction_gcd",
    "quantum_for",
    "run_oracle",
    "check_invariants",
    "compare_results",
    "verify_system",
]


#: Steps after which :func:`run_oracle` gives up on a replay: a trace that
#: never drains is a violation, not a hang.
MAX_STEPS = 2_000_000


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two positive fractions: the largest
    fraction dividing both to an integer quotient."""
    return Fraction(
        math.gcd(a.numerator * b.denominator, b.numerator * a.denominator),
        a.denominator * b.denominator,
    )


def quantum_for(
    workload: list[ThreadSpec], config: SystemConfig, mode: str
) -> Fraction:
    """The oracle's time quantum: GCD of every rate and overhead in play.

    "In play" means the initiation intervals reachable by the kernels the
    workload actually invokes — on every allocation size the pool can
    grant — plus the reconfiguration overhead and the unit cycle (CPU
    segments and arrivals are integral).
    """
    kernels = {
        s.kernel for t in workload for s in t.segments if s.kind == "cgra"
    }
    values = [Fraction(1)]
    if config.reconfig_overhead:
        values.append(Fraction(config.reconfig_overhead))
    for name in sorted(kernels):
        prof = config.profiles[name]
        if mode == "single":
            values.append(Fraction(prof.ii_base))
            continue
        values.append(Fraction(prof.ii_paged))
        for m in range(1, min(prof.pages_used, config.n_pages + 1)):
            values.append(prof.steady_state_ii_of(m))
    return reduce(fraction_gcd, values)


@dataclass
class OracleResult:
    """What the cycle-quantum reference simulator re-derived."""

    mode: str
    makespan: Fraction
    finish_times: dict[int, Fraction]
    busy_page_cycles: Fraction
    wait_cycles: Fraction
    reallocations: int
    kernel_invocations: int
    iterations_done: dict[int, Fraction]
    quantum: Fraction
    steps: int


@dataclass
class _OThread:
    spec: ThreadSpec
    seg_idx: int = 0
    # pending | cpu | ready_cgra | queued | running | done
    status: str = "pending"
    cpu_left: Fraction = Fraction(0)
    iterations_left: Fraction = Fraction(0)
    iterations_done: Fraction = Fraction(0)
    rate: Fraction = Fraction(1)
    alloc: Allocation | None = None
    stall_until: Fraction = Fraction(0)
    drain_until: Fraction = Fraction(0)
    queued_since: Fraction | None = None
    completed_at: Fraction | None = None
    finish: Fraction | None = None


class _Oracle:
    def __init__(self, workload, config: SystemConfig, mode: str, trace) -> None:
        if mode not in ("single", "multithreaded"):
            raise SimulationError(f"unknown mode {mode!r}")
        self.mode = mode
        self.config = config
        self.threads = {t.tid: _OThread(t) for t in workload}
        self.trace: list[Decision] = list(trace)
        self.allocs: dict[int, Allocation] = {}
        self.busy = Fraction(0)
        self.wait = Fraction(0)
        self.reallocations = 0
        self.kernel_invocations = 0
        self.now = Fraction(0)

    def _viol(self, msg: str) -> None:
        raise OracleViolation(f"oracle[t={self.now}]: {msg}")

    def _rate_of(self, kernel: str, m: int) -> Fraction:
        prof = self.config.profiles[kernel]
        if self.mode == "single":
            return Fraction(prof.ii_base)
        if m >= prof.pages_used:
            return Fraction(prof.ii_paged)
        return prof.best_steady_ii_upto(m)

    # -- thread lifecycle -------------------------------------------------------

    def _enter_segment(self, st: _OThread) -> None:
        """Move *st* into its current segment (or finish) at ``self.now``."""
        if st.seg_idx >= len(st.spec.segments):
            st.status = "done"
            st.finish = self.now
            return
        seg = st.spec.segments[st.seg_idx]
        if seg.kind == "cpu":
            st.status = "cpu"
            st.cpu_left = Fraction(seg.cycles)
        else:
            # the event simulator must issue the manager request at this
            # exact instant; _check_served flags it if none was recorded
            st.status = "ready_cgra"

    def _mark_completions(self) -> None:
        for st in self.threads.values():
            if (
                st.status == "running"
                and st.iterations_left == 0
                and st.stall_until <= self.now
                and st.completed_at is None
            ):
                st.completed_at = self.now

    # -- decision replay --------------------------------------------------------

    def _apply_reallocation(self, ev, d: Decision) -> None:
        st = self.threads.get(ev.tid)
        if st is None:
            self._viol(f"reallocation names unknown thread {ev.tid}")
        if ev.before != self.allocs.get(ev.tid):
            self._viol(
                f"reallocation of thread {ev.tid} claims before={ev.before} "
                f"but the oracle holds {self.allocs.get(ev.tid)}"
            )
        if ev.after is None:
            if ev.tid != d.tid or d.kind != "release":
                self._viol(
                    f"thread {ev.tid} loses its pages in the {d.kind} of "
                    f"thread {d.tid}: only a departing thread gives them up"
                )
            # the departure; the caller advances the segment
            self.allocs.pop(ev.tid, None)
            st.alloc = None
            return
        prev = st.alloc
        self.allocs[ev.tid] = ev.after
        st.alloc = ev.after
        if st.status not in ("queued", "running"):
            self._viol(
                f"reallocation grants pages to thread {ev.tid} "
                f"which is {st.status}, not in a CGRA segment"
            )
        seg = st.spec.segments[st.seg_idx]
        if prev is None:
            # admission: wake the queued thread
            self.wait += d.time - st.queued_since
            st.queued_since = None
            st.status = "running"
            st.rate = self._rate_of(seg.kernel, ev.after.length)
            st.completed_at = None
            return
        # reshape of a running thread
        if st.status != "running":
            self._viol(f"reshape of thread {ev.tid} while {st.status}")
        if (
            self.config.switch_at_iteration_boundary
            and st.iterations_left > 0
        ):
            whole = st.iterations_left.__floor__()
            frac = st.iterations_left - whole
            if frac > 0:
                # the in-flight iteration drains at the old rate, billed
                # by _integrate on whatever pages the thread holds while
                # it drains
                st.stall_until = max(st.stall_until, d.time) + frac * st.rate
                st.drain_until = st.stall_until
                st.iterations_left = Fraction(whole)
                st.iterations_done += frac
        st.rate = self._rate_of(seg.kernel, ev.after.length)
        if self.config.reconfig_overhead:
            st.stall_until = max(
                st.stall_until, d.time + self.config.reconfig_overhead
            )
        st.completed_at = None

    def _apply_reallocations(self, d: Decision) -> None:
        """Replay *d*'s events; in multithreaded mode, each event of a
        thread other than ``d.tid`` (always a grant: only the departing
        thread gives its pages up) is one reallocation."""
        for ev in d.reallocations:
            self._apply_reallocation(ev, d)
        if self.mode == "multithreaded":
            self.reallocations += sum(1 for e in d.reallocations if e.tid != d.tid)

    def _apply_decision(self, d: Decision) -> None:
        st = self.threads.get(d.tid)
        if st is None:
            self._viol(f"decision names unknown thread {d.tid}")
        if d.kind == "request":
            if st.status != "ready_cgra":
                self._viol(
                    f"request recorded for thread {d.tid} but the oracle "
                    f"has it {st.status} (CPU segment not drained, or "
                    f"already active)"
                )
            seg = st.spec.segments[st.seg_idx]
            st.iterations_left = Fraction(seg.trip)
            st.completed_at = None
            st.queued_since = d.time
            st.status = "queued"
            self.kernel_invocations += 1
            self._apply_reallocations(d)
        elif d.kind == "release":
            if st.status != "running":
                self._viol(f"release of thread {d.tid} while {st.status}")
            if st.iterations_left != 0:
                self._viol(
                    f"thread {d.tid} released with {st.iterations_left} "
                    f"iterations outstanding"
                )
            if st.completed_at != d.time:
                self._viol(
                    f"thread {d.tid} completed its kernel at "
                    f"t={st.completed_at} but was released at t={d.time}"
                )
            self._apply_reallocations(d)
            st.seg_idx += 1
            st.completed_at = None
            self._enter_segment(st)
        else:
            self._viol(f"unknown decision kind {d.kind!r}")
        if self.allocs != d.resident_map():
            self._viol(
                f"allocation map diverged after {d.kind} of thread {d.tid}: "
                f"oracle {sorted(self.allocs.items())} vs "
                f"trace {sorted(d.resident_map().items())}"
            )
        try:
            check_allocation_map(self.config.n_pages, self.allocs)
        except ReproError as err:
            self._viol(f"invalid allocation map: {err}")

    # -- time integration -------------------------------------------------------

    def _integrate(self, t2: Fraction) -> None:
        dt = t2 - self.now
        for st in self.threads.values():
            if st.status == "cpu":
                st.cpu_left -= dt
                if st.cpu_left < 0:
                    self._viol("CPU segment drained past zero")  # unreachable
            elif st.status == "running":
                if st.drain_until > self.now:
                    drained = min(t2, st.drain_until) - self.now
                    self.busy += drained * st.alloc.length
                start = max(self.now, st.stall_until)
                if t2 > start and st.rate > 0:
                    window = t2 - start
                    prog = min(window, st.iterations_left * st.rate)
                    if prog > 0:
                        done = prog / st.rate
                        st.iterations_left -= done
                        st.iterations_done += done
                        self.busy += prog * st.alloc.length
        self.now = t2
        for st in self.threads.values():
            if st.status == "cpu" and st.cpu_left == 0:
                st.seg_idx += 1
                self._enter_segment(st)

    def _check_served(self) -> None:
        for tid, st in self.threads.items():
            if st.status == "ready_cgra":
                self._viol(
                    f"thread {tid} reached a CGRA segment but the event "
                    f"simulator recorded no request for it at this instant"
                )

    def run(self, quantum: Fraction) -> OracleResult:
        steps = 0
        di = 0
        while True:
            steps += 1
            if steps > MAX_STEPS:
                self._viol(f"step budget {MAX_STEPS} exceeded")
            # arrivals land exactly on their (integral, breakpointed) time
            for st in self.threads.values():
                if st.status == "pending" and Fraction(st.spec.arrival) <= self.now:
                    self._enter_segment(st)
            # replay all decisions recorded at this instant, in order
            while di < len(self.trace) and self.trace[di].time == self.now:
                self._mark_completions()
                self._apply_decision(self.trace[di])
                di += 1
            if di < len(self.trace) and self.trace[di].time < self.now:
                self._viol(
                    f"decision at t={self.trace[di].time} lies in the past"
                )
            self._mark_completions()
            self._check_served()
            if all(st.status == "done" for st in self.threads.values()):
                break
            # next exact breakpoint, capped by the quantum grid
            candidates: list[Fraction] = []
            if di < len(self.trace):
                candidates.append(self.trace[di].time)
            for st in self.threads.values():
                if st.status == "pending":
                    candidates.append(Fraction(st.spec.arrival))
                elif st.status == "cpu":
                    candidates.append(self.now + st.cpu_left)
                elif st.status == "running" and st.completed_at is None:
                    candidates.append(
                        max(self.now, st.stall_until)
                        + st.iterations_left * st.rate
                    )
            if not candidates:
                stuck = [
                    t for t, s in self.threads.items() if s.status != "done"
                ]
                self._viol(f"no future events but threads {stuck} unfinished")
            t2 = min(min(candidates), self.now + quantum)
            if t2 <= self.now:
                self._viol("time failed to advance")  # unreachable
            self._integrate(t2)
        if di < len(self.trace):
            self._viol(
                f"{len(self.trace) - di} decisions left after all threads "
                f"finished (first at t={self.trace[di].time})"
            )
        # work conservation: billed iterations equal trip counts
        for tid, st in self.threads.items():
            expected = sum(
                Fraction(s.trip)
                for s in st.spec.segments
                if s.kind == "cgra"
            )
            if st.iterations_done != expected:
                self._viol(
                    f"thread {tid} billed {st.iterations_done} iterations "
                    f"but its segments total {expected}"
                )
        finish = {t: s.finish for t, s in self.threads.items()}
        return OracleResult(
            mode=self.mode,
            makespan=max(finish.values(), default=Fraction(0)),
            finish_times=finish,
            busy_page_cycles=self.busy,
            wait_cycles=self.wait,
            reallocations=self.reallocations,
            kernel_invocations=self.kernel_invocations,
            iterations_done={
                t: s.iterations_done for t, s in self.threads.items()
            },
            quantum=quantum,
            steps=steps,
        )


def run_oracle(
    workload: list[ThreadSpec],
    config: SystemConfig,
    mode: str,
    decisions: DecisionTrace | list[Decision],
) -> OracleResult:
    """Replay *decisions* through the cycle-quantum reference simulator.

    Raises :class:`OracleViolation` the moment the trace is inconsistent
    with the oracle's independent timing integration.
    """
    trace = (
        decisions.decisions
        if isinstance(decisions, DecisionTrace)
        else decisions
    )
    quantum = quantum_for(workload, config, mode)
    return _Oracle(workload, config, mode, trace).run(quantum)


# -- invariant checker -------------------------------------------------------------


def check_invariants(
    result: SystemResult,
    *,
    workload: list[ThreadSpec] | None = None,
    decisions: DecisionTrace | list[Decision] | None = None,
) -> list[str]:
    """Conservation invariants over a simulation outcome.

    Returns human-readable violation strings (empty when all hold):
    finishes after arrivals, makespan consistency, busy-page capacity,
    non-negative totals, and — when the *workload* is supplied —
    per-thread completeness and invocation counts.  Given the run's
    *decisions* as well, the timeline replayed from them is audited too:
    allocation-map validity at every instant, wait-cycle identity, and no
    kernel completion or reshape while queued.  All of it is O(decisions)
    and needs no re-simulation.
    """
    v: list[str] = []
    for tid, fin in result.finish_times.items():
        arr = result.arrivals.get(tid, 0.0)
        if fin < arr:
            v.append(f"thread {tid} finished at {fin} before its arrival {arr}")
    if result.finish_times:
        top = max(result.finish_times.values())
        if result.makespan != top:
            v.append(
                f"makespan {result.makespan} != max finish time {top}"
            )
    cap = result.n_pages * result.makespan
    if result.cgra_busy_page_cycles < 0:
        v.append(f"negative busy page-cycles {result.cgra_busy_page_cycles}")
    if result.cgra_busy_page_cycles > cap * (1 + 1e-12) + 1e-9:
        v.append(
            f"busy page-cycles {result.cgra_busy_page_cycles} exceed "
            f"capacity n_pages*makespan = {cap}"
        )
    if result.wait_cycles < 0:
        v.append(f"negative wait cycles {result.wait_cycles}")
    if workload is not None:
        n_cgra = sum(
            1 for t in workload for s in t.segments if s.kind == "cgra"
        )
        if result.kernel_invocations != n_cgra:
            v.append(
                f"{result.kernel_invocations} kernel invocations billed "
                f"but the workload has {n_cgra} CGRA segments"
            )
        for t in workload:
            if t.tid not in result.finish_times:
                v.append(f"thread {t.tid} has no finish time")
    if decisions is not None:
        if workload is None:
            raise SimulationError("checking decisions needs the workload")
        timeline = SystemTimeline.replay(decisions, workload)
        v += _timeline_invariants(result, timeline)
    return v


def _timeline_invariants(
    result: SystemResult, timeline: SystemTimeline
) -> list[str]:
    v: list[str] = []
    # allocation-map validity between instants: the changes of one instant
    # form an atomic batch (a fair-share rebalance moves several residents
    # at once), so the map is only checked when time advances past it
    live: dict[int, Allocation] = {}
    batch_time: float | None = None

    def _check_live(when: float) -> None:
        try:
            check_allocation_map(result.n_pages, live)
        except ReproError as err:
            v.append(f"t={when}: {err}")
            live.clear()  # keep scanning from a clean slate

    for e in timeline.events:
        if batch_time is not None and e.time > batch_time:
            _check_live(batch_time)
        batch_time = e.time
        if e.kind in ("kernel_start", "realloc"):
            live[e.tid] = Allocation(*e.alloc)
        else:
            live.pop(e.tid, None)
    if batch_time is not None:
        _check_live(batch_time)
    # wait identity + no progress while queued
    queued_at: dict[int, float] = {}
    gaps = 0.0
    for e in timeline.events:
        if e.kind == "queued":
            if e.tid in queued_at:
                v.append(
                    f"thread {e.tid} queued again at t={e.time} without a "
                    f"kernel start in between"
                )
            queued_at[e.tid] = e.time
        elif e.kind == "kernel_start":
            since = queued_at.pop(e.tid, None)
            if since is not None:
                gaps += e.time - since
        elif e.kind == "kernel_done" and e.tid in queued_at:
            v.append(
                f"thread {e.tid} completed a kernel at t={e.time} "
                f"while queued (no pages held)"
            )
        elif e.tid in queued_at:
            v.append(f"queued thread {e.tid} was reshaped at t={e.time}")
    for tid in queued_at:
        if tid in result.finish_times:
            v.append(f"thread {tid} finished while still queued")
    if not math.isclose(gaps, result.wait_cycles, rel_tol=1e-9, abs_tol=1e-9):
        v.append(
            f"queued intervals sum to {gaps} but wait_cycles is "
            f"{result.wait_cycles}"
        )
    return v


def compare_results(oracle: OracleResult, result: SystemResult) -> list[str]:
    """Bit-level parity between the oracle and the event simulator.

    The event simulator accumulates in exact fractions and converts to
    float once, so equality here is ``==`` on the converted values — any
    drift is a bug, not noise.
    """
    problems: list[str] = []
    if float(oracle.makespan) != result.makespan:
        problems.append(
            f"makespan: oracle {float(oracle.makespan)} vs "
            f"event-sim {result.makespan}"
        )
    if set(oracle.finish_times) != set(result.finish_times):
        problems.append(
            f"finished threads differ: oracle {sorted(oracle.finish_times)} "
            f"vs event-sim {sorted(result.finish_times)}"
        )
    else:
        for tid, fin in oracle.finish_times.items():
            if float(fin) != result.finish_times[tid]:
                problems.append(
                    f"finish of thread {tid}: oracle {float(fin)} vs "
                    f"event-sim {result.finish_times[tid]}"
                )
    if float(oracle.busy_page_cycles) != result.cgra_busy_page_cycles:
        problems.append(
            f"busy page-cycles: oracle {float(oracle.busy_page_cycles)} vs "
            f"event-sim {result.cgra_busy_page_cycles}"
        )
    if float(oracle.wait_cycles) != result.wait_cycles:
        problems.append(
            f"wait cycles: oracle {float(oracle.wait_cycles)} vs "
            f"event-sim {result.wait_cycles}"
        )
    if oracle.reallocations != result.reallocations:
        problems.append(
            f"reallocations: oracle {oracle.reallocations} vs "
            f"event-sim {result.reallocations}"
        )
    if oracle.kernel_invocations != result.kernel_invocations:
        problems.append(
            f"kernel invocations: oracle {oracle.kernel_invocations} vs "
            f"event-sim {result.kernel_invocations}"
        )
    return problems


def verify_system(
    workload: list[ThreadSpec],
    config: SystemConfig,
    mode: str,
) -> tuple[SystemResult, OracleResult]:
    """Simulate *workload*, replay its decisions through the oracle, and
    check every invariant; raise :class:`OracleViolation` on any
    disagreement."""
    decisions = DecisionTrace()
    result = simulate_system(workload, config, mode, decisions=decisions)
    oracle = run_oracle(workload, config, mode, decisions)
    problems = compare_results(oracle, result)
    problems += check_invariants(result, workload=workload, decisions=decisions)
    if problems:
        raise OracleViolation(
            f"{mode} simulation failed verification: " + "; ".join(problems)
        )
    return result, oracle
