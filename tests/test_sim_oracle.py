"""Tests for the cycle-quantum simulation oracle (:mod:`repro.sim.oracle`),
the invariant checker, the workload fuzzer, and the regression scenarios
for the simulator bugfixes that shipped with the oracle (stall clobbering,
admission billing, turnaround accounting, exact wait cycles)."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from repro.core.policies import Allocation, FairSharePolicy, HalvingPolicy
from repro.core.runtime import Reallocation
from repro.sim.fuzz import (
    FUZZ_PROFILES,
    _POLICIES,
    _make_policy,
    make_case,
    run_fuzz,
)
from repro.sim.oracle import (
    check_invariants,
    compare_results,
    fraction_gcd,
    quantum_for,
    run_oracle,
    verify_system,
)
from repro.sim.system import (
    KernelProfile,
    SystemConfig,
    SystemResult,
    improvement,
    simulate_system,
)
from repro.sim.trace import DecisionTrace, SystemTimeline
from repro.sim.workload import (
    ARRIVAL_MODELS,
    Segment,
    ServiceClass,
    ThreadSpec,
    generate_trace,
)
from repro.util.errors import OracleViolation, SimulationError

PROFILES = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=1),
    "slow": KernelProfile("slow", ii_base=4, ii_paged=4, pages_used=1),
    "wide": KernelProfile("wide", ii_base=1, ii_paged=2, pages_used=4),
    # ii_base < ii_paged and pages_used == the pool: reshapes of this
    # kernel always cross a rate change, the stall-clobber territory
    "quad": KernelProfile("quad", ii_base=2, ii_paged=4, pages_used=4),
}


def config(n_pages=4, **kw):
    return SystemConfig(n_pages=n_pages, profiles=PROFILES, **kw)


def thread(tid, *segs, arrival=0):
    return ThreadSpec(tid, tuple(segs), arrival)


def verified(workload, cfg, mode):
    """Simulate + oracle-replay + invariant-check; fail the test on any
    divergence."""
    return verify_system(workload, cfg, mode)


class TestQuantum:
    def test_fraction_gcd(self):
        assert fraction_gcd(Fraction(1), Fraction(1, 2)) == Fraction(1, 2)
        assert fraction_gcd(Fraction(8, 3), Fraction(2)) == Fraction(2, 3)
        assert fraction_gcd(Fraction(4), Fraction(6)) == Fraction(2)
        assert fraction_gcd(Fraction(3, 4), Fraction(5, 6)) == Fraction(1, 12)

    def test_quantum_divides_all_rates(self):
        wl = [thread(0, Segment("cgra", kernel="wide", trip=1))]
        cfg = config(reconfig_overhead=3)
        q = quantum_for(wl, cfg, "multithreaded")
        prof = PROFILES["wide"]
        for value in (
            Fraction(1),
            Fraction(3),
            Fraction(prof.ii_paged),
            prof.steady_state_ii_of(1),
            prof.steady_state_ii_of(2),
            prof.steady_state_ii_of(3),
        ):
            assert (value / q).denominator == 1

    def test_single_mode_uses_base_ii(self):
        wl = [thread(0, Segment("cgra", kernel="slow", trip=1))]
        assert quantum_for(wl, config(), "single") == Fraction(1)


class TestOracleParity:
    """The oracle re-derives the event simulator's results exactly on the
    deterministic scenarios whose answers are known in closed form."""

    def test_single_mode_fifo(self):
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
        ]
        result, oracle = verified(wl, config(), "single")
        assert result.makespan == 80
        assert oracle.wait_cycles == 40

    def test_concurrent_small_kernels(self):
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
        ]
        result, oracle = verified(wl, config(), "multithreaded")
        assert result.makespan == 40
        assert oracle.makespan == 40

    def test_expansion_after_departure(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="wide", trip=4)),
        ]
        result, oracle = verified(wl, config(), "multithreaded")
        assert result.makespan == 24
        # thread 0 halved for thread 1, then expanded over its pages
        assert oracle.reallocations == result.reallocations == 2

    def test_queueing_wave(self):
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=5)) for t in range(6)
        ]
        result, oracle = verified(wl, config(), "multithreaded")
        assert result.makespan == 40
        assert float(oracle.wait_cycles) == result.wait_cycles > 0

    def test_staggered_arrivals_with_overhead_and_boundary(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=9)),
            thread(1, Segment("cgra", kernel="wide", trip=8), arrival=1),
            thread(2, Segment("cpu", cycles=3),
                   Segment("cgra", kernel="slow", trip=4), arrival=2),
        ]
        cfg = config(reconfig_overhead=2, switch_at_iteration_boundary=True)
        result, oracle = verified(wl, cfg, "multithreaded")
        assert len(result.finish_times) == 3

    def test_mixed_cpu_cgra_phases(self):
        wl = [
            thread(
                t,
                Segment("cpu", cycles=7),
                Segment("cgra", kernel="fast", trip=11),
                Segment("cpu", cycles=5),
                Segment("cgra", kernel="wide", trip=3),
            )
            for t in range(3)
        ]
        verified(wl, config(n_pages=5), "multithreaded")
        verified(wl, config(n_pages=5), "single")


def _queue_of_three():
    """Three one-page kernels on two pages: thread 2's request at t=0 is
    queued, and thread 0's release at t=20 admits it."""
    wl = [thread(t, Segment("cgra", kernel="slow", trip=5)) for t in range(3)]
    cfg = config(n_pages=2)
    decisions = DecisionTrace()
    result = simulate_system(wl, cfg, "multithreaded", decisions=decisions)
    return wl, cfg, result, decisions.decisions


def _tampered(decisions, how):
    """The decisions of :func:`_queue_of_three` changed to break one
    invariant."""
    ds = list(decisions)
    assert [(d.kind, d.tid) for d in ds[1:4]] == [
        ("request", 1), ("request", 2), ("release", 0)
    ]
    assert ds[2].reallocations == ()  # thread 2 queued
    if how == "overlap":
        # thread 1's admission halves thread 0 to page 0, then takes page 0
        d = ds[1]
        assert d.reallocations[-1] == Reallocation(1, None, Allocation(1, 1))
        ds[1] = replace(
            d,
            reallocations=d.reallocations[:-1]
            + (Reallocation(1, None, Allocation(0, 1)),),
            residents=((0, Allocation(0, 1)), (1, Allocation(0, 1))),
        )
    elif how == "release while queued":
        ds.insert(3, replace(ds[2], kind="release"))
    elif how == "reshape while queued":
        # thread 0's release reshapes thread 2 before admitting it
        reshape = Reallocation(2, Allocation(1, 1), Allocation(0, 1))
        ds[3] = replace(ds[3], reallocations=(reshape,) + ds[3].reallocations)
    else:
        raise ValueError(how)
    return ds


class TestOracleCatchesLies:
    """The oracle is only useful if a *wrong* trace fails: tampering with
    the recorded decisions must raise, proving the timing arithmetic is
    re-derived rather than echoed."""

    def _trace(self, wl, cfg, mode):
        decisions = DecisionTrace()
        simulate_system(wl, cfg, mode, decisions=decisions)
        return decisions

    def test_dropped_release_detected(self):
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
        ]
        cfg = config()
        decisions = self._trace(wl, cfg, "multithreaded")
        tampered = decisions.decisions[:-1]
        with pytest.raises(OracleViolation):
            run_oracle(wl, cfg, "multithreaded", tampered)

    def test_shifted_release_time_detected(self):
        wl = [thread(0, Segment("cgra", kernel="slow", trip=10))]
        cfg = config()
        decisions = self._trace(wl, cfg, "multithreaded")
        release = decisions.decisions[-1]
        shifted = decisions.decisions[:-1] + [
            type(release)(
                release.time - 1,
                release.kind,
                release.tid,
                release.reallocations,
                release.residents,
            )
        ]
        with pytest.raises(OracleViolation):
            run_oracle(wl, cfg, "multithreaded", shifted)

    def test_dropped_resident_detected(self):
        # thread 1's request halves thread 0; the tampered trace takes all
        # of thread 0's pages instead, with a resident map to match
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="wide", trip=4)),
        ]
        cfg = config()
        decisions = self._trace(wl, cfg, "multithreaded").decisions
        admit = decisions[1]
        assert (admit.kind, admit.tid) == ("request", 1)
        dropped = type(admit)(
            admit.time,
            admit.kind,
            admit.tid,
            tuple(
                Reallocation(0, e.before, None) if e.tid == 0 else e
                for e in admit.reallocations
            ),
            tuple((t, a) for t, a in admit.residents if t != 0),
        )
        tampered = decisions[:1] + [dropped] + decisions[2:]
        with pytest.raises(OracleViolation, match="only a departing thread"):
            run_oracle(wl, cfg, "multithreaded", tampered)

    def test_overlapping_decision_detected(self):
        wl, cfg, _, decisions = _queue_of_three()
        with pytest.raises(OracleViolation, match="overlapping"):
            run_oracle(wl, cfg, "multithreaded", _tampered(decisions, "overlap"))

    def test_release_while_queued_detected(self):
        wl, cfg, _, decisions = _queue_of_three()
        tampered = _tampered(decisions, "release while queued")
        with pytest.raises(OracleViolation, match="while queued"):
            run_oracle(wl, cfg, "multithreaded", tampered)

    def test_reshape_of_queued_thread_detected(self):
        wl, cfg, _, decisions = _queue_of_three()
        tampered = _tampered(decisions, "reshape while queued")
        with pytest.raises(OracleViolation, match="the oracle holds None"):
            run_oracle(wl, cfg, "multithreaded", tampered)

    def test_wrong_wait_cycles_flagged_by_compare(self):
        wl, cfg, result, decisions = _queue_of_three()
        oracle = run_oracle(wl, cfg, "multithreaded", decisions)
        assert result.wait_cycles == oracle.wait_cycles == 20
        result.wait_cycles = 0.0
        problems = compare_results(oracle, result)
        assert any("wait cycles" in p for p in problems)

    def test_wrong_result_flagged_by_compare(self):
        wl = [thread(0, Segment("cgra", kernel="slow", trip=10))]
        cfg = config()
        decisions = DecisionTrace()
        result = simulate_system(wl, cfg, "multithreaded", decisions=decisions)
        oracle = run_oracle(wl, cfg, "multithreaded", decisions)
        assert compare_results(oracle, result) == []
        result.makespan += 1.0
        assert compare_results(oracle, result)


class TestInvariantChecker:
    """The result alone must be consistent; given the run's decisions, so
    must the timeline replayed from them: a valid map at every instant,
    queued intervals summing to ``wait_cycles``, nothing done while
    queued."""

    def _base_result(self, **kw):
        defaults = dict(
            mode="multithreaded",
            makespan=10.0,
            finish_times={0: 10.0},
            cgra_busy_page_cycles=10.0,
            n_pages=2,
            kernel_invocations=1,
            wait_cycles=0.0,
            arrivals={0: 0.0},
        )
        defaults.update(kw)
        return SystemResult(**defaults)

    def _tampered_problems(self, how):
        wl, _, result, decisions = _queue_of_three()
        return check_invariants(
            result, workload=wl, decisions=_tampered(decisions, how)
        )

    def test_clean_run_passes(self):
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=5)) for t in range(6)
        ]
        decisions = DecisionTrace()
        result = simulate_system(wl, config(), "multithreaded", decisions=decisions)
        assert result.wait_cycles > 0
        assert check_invariants(result, workload=wl, decisions=decisions) == []

    def test_busy_pages_over_capacity(self):
        r = self._base_result(cgra_busy_page_cycles=21.0)  # cap = 2*10
        problems = check_invariants(r)
        assert any("capacity" in p for p in problems)

    def test_makespan_not_max_finish(self):
        r = self._base_result(makespan=9.0, cgra_busy_page_cycles=9.0)
        problems = check_invariants(r)
        assert any("max finish" in p for p in problems)

    def test_finish_before_arrival(self):
        r = self._base_result(arrivals={0: 11.0})
        problems = check_invariants(r)
        assert any("before its arrival" in p for p in problems)

    def test_overlapping_allocations_flagged(self):
        problems = self._tampered_problems("overlap")
        assert any("overlapping" in p for p in problems)

    def test_atomic_rebalance_not_flagged(self):
        # a fair-share rebalance moves several residents in one decision:
        # transiently overlapping mid-batch, valid once it is applied
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=10 + 5 * t), arrival=t)
            for t in range(3)
        ]
        cfg = config(n_pages=4, policy=FairSharePolicy())
        decisions = DecisionTrace()
        result = simulate_system(wl, cfg, "multithreaded", decisions=decisions)
        assert any(
            sum(e.before is not None for e in d.reallocations) >= 2
            for d in decisions.decisions
        )
        assert check_invariants(result, workload=wl, decisions=decisions) == []

    def test_completion_while_queued_flagged(self):
        problems = self._tampered_problems("release while queued")
        assert any("while queued" in p for p in problems)

    def test_wait_identity_violation_flagged(self):
        wl, _, result, decisions = _queue_of_three()
        assert result.wait_cycles == 20
        result.wait_cycles = 0.0  # the replayed timeline says 20
        problems = check_invariants(result, workload=wl, decisions=decisions)
        assert any("wait_cycles" in p for p in problems)

    def test_reshape_of_queued_thread_flagged(self):
        problems = self._tampered_problems("reshape while queued")
        assert any("reshaped" in p for p in problems)

    def test_missing_invocations_flagged(self):
        wl = [thread(0, Segment("cgra", kernel="slow", trip=1))]
        r = self._base_result(kernel_invocations=0)
        problems = check_invariants(r, workload=wl)
        assert any("invocations" in p for p in problems)


class TestStallClobberRegression:
    """Regression for the reconfiguration stall overwriting the
    iteration-boundary drain (system.py): with both knobs on, the overhead
    must extend the drain stall (``max``), not replace it — the old
    assignment let thread 0 finish at 26, double-running the already-billed
    drain window."""

    def _scenario(self):
        wl = [
            thread(0, Segment("cgra", kernel="quad", trip=4)),
            thread(1, Segment("cgra", kernel="quad", trip=4), arrival=1),
        ]
        cfg = config(
            n_pages=4, reconfig_overhead=1, switch_at_iteration_boundary=True
        )
        return wl, cfg

    def test_exact_finish_times(self):
        wl, cfg = self._scenario()
        result = simulate_system(wl, cfg, "multithreaded")
        # t0 runs at II 4 from t=0; at t=1 it is reshaped to 2 pages with
        # 3/4 of an iteration in flight: drain ends at t=4, the 1-cycle
        # overhead is covered by the drain (max, not overwrite), and the
        # remaining 3 iterations at II 8 finish at 4 + 24 = 28.
        assert result.finish_times[0] == 28
        assert result.finish_times[1] == 33
        assert result.makespan == 33
        # halved for thread 1 at t=1, thread 1 expanded at t=28
        assert result.reallocations == 2

    def test_oracle_agrees(self):
        wl, cfg = self._scenario()
        result, oracle = verified(wl, cfg, "multithreaded")
        assert oracle.finish_times[0] == Fraction(28)

    def test_no_busy_billing_past_capacity(self):
        wl, cfg = self._scenario()
        decisions = DecisionTrace()
        result = simulate_system(wl, cfg, "multithreaded", decisions=decisions)
        assert result.cgra_busy_page_cycles <= cfg.n_pages * result.makespan
        assert check_invariants(result, workload=wl, decisions=decisions) == []


class TestBoundaryDrainBilling:
    """A boundary drain is billed as it elapses, on the pages the thread
    holds meanwhile.  Billing it up front on the thread's first new
    segment double-billed pages another thread held: both runs below
    billed more page-cycles than the two pages have."""

    def test_drain_billed_on_the_segment_held_after_the_decision(self):
        # thread 0's release at t=10 grows thread 1 to both pages and
        # halves it again for thread 2, with half an iteration (2 cycles)
        # in flight: the drain runs on one page, not two (42 billed)
        wl = [
            thread(0, Segment("cgra", kernel="fast", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=5)),
            thread(2, Segment("cgra", kernel="slow", trip=2)),
        ]
        cfg = config(n_pages=2, switch_at_iteration_boundary=True)
        result, _ = verified(wl, cfg, "multithreaded")
        assert result.makespan == 20
        assert result.cgra_busy_page_cycles == 40  # the array, always busy

    def test_reshape_mid_drain_moves_the_rest_of_it(self):
        # thread 1's release at t=5 grows thread 0 to both pages with 3/4
        # of an iteration in flight: it drains until t=8, but thread 2
        # takes page 1 at t=6, so [6, 8] is billed on one page (26 billed)
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=3)),
            thread(1, Segment("cgra", kernel="fast", trip=5)),
            thread(2, Segment("cgra", kernel="fast", trip=4), arrival=6),
        ]
        cfg = config(n_pages=2, switch_at_iteration_boundary=True)
        result, _ = verified(wl, cfg, "multithreaded")
        assert result.finish_times == {1: 5.0, 2: 10.0, 0: 12.0}
        assert result.cgra_busy_page_cycles == 24


class _OverNeedHalving(HalvingPolicy):
    """Scripted, non-evicting: a full array halves only a resident holding
    more pages than its need, so a queue forms while a thread holds its
    whole need, and a thread admitted onto a wide free segment is halved
    by the next admission of the same drain.  Refusal depends on the
    resident map alone, as the manager's negative cache requires."""

    def admit(self, n_pages, residents, tid, needs=None):
        if sum(a.length for a in residents.values()) < n_pages:
            return super().admit(n_pages, residents, tid, needs)
        over = [t for t, a in residents.items() if a.length > needs[t]]
        if not over:
            return None
        victim = max(over, key=lambda t: (residents[t].length, -t))
        a = residents[victim]
        keep = a.length - a.length // 2
        return {
            victim: Allocation(a.start, keep),
            tid: Allocation(a.start + keep, a.length - keep),
        }


class TestAdmitThenReshape:
    def test_same_batch_admit_then_reshape_bills_admission_rate(self):
        # thread 0 holds all 4 pages, its whole need, so threads 1 and 2
        # queue.  Its release at t=16 admits thread 1 onto all 4 pages and
        # then halves it for thread 2, in one decision.  The kernel_start
        # row shows the admission event's 4 pages (the manager's table
        # already holds the final 2); thread 1 runs at the 2-page rate and
        # pays the 3-cycle overhead of its halving, so its 10 iterations
        # end at 16 + 3 + 7 + 3 + 3 = 32, with a second stall at t=26
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="fast", trip=10), arrival=1),
            thread(2, Segment("cgra", kernel="fast", trip=10), arrival=2),
        ]
        cfg = SystemConfig(
            n_pages=4,
            profiles=PROFILES,
            policy=_OverNeedHalving(),
            reconfig_overhead=3,
            switch_at_iteration_boundary=True,
        )
        decisions = DecisionTrace()
        result = simulate_system(wl, cfg, "multithreaded", decisions=decisions)
        timeline = SystemTimeline.replay(decisions, wl)
        of_t1 = [(e.time, e.kind, e.alloc) for e in timeline.events if e.tid == 1]
        assert of_t1[1:3] == [(16, "kernel_start", (0, 4)), (16, "realloc", (0, 2))]
        # thread 0's release: thread 1 admitted, thread 1 halved, thread 2
        # admitted; thread 2's release at t=26: thread 1 expanded
        assert result.reallocations == 4
        assert result.finish_times == {0: 16.0, 2: 26.0, 1: 32.0}
        assert verified(wl, cfg, "multithreaded")[0] == result


class TestTurnaroundAndImprovement:
    def test_turnaround_measured_from_arrival(self):
        wl = [
            thread(0, Segment("cpu", cycles=100)),
            thread(1, Segment("cpu", cycles=100), arrival=500),
        ]
        result = simulate_system(wl, config(), "multithreaded")
        # mean finish would be (100 + 600) / 2 = 350; turnaround is 100
        assert result.avg_turnaround == 100
        assert result.arrivals == {0: 0.0, 1: 500.0}

    def test_improvement_degenerate_pairs(self):
        empty_a = simulate_system([], config(), "single")
        empty_b = simulate_system([], config(), "multithreaded")
        assert improvement(empty_a, empty_b) == 0.0
        real = simulate_system(
            [thread(0, Segment("cpu", cycles=10))], config(), "single"
        )
        with pytest.raises(SimulationError):
            improvement(empty_a, real)
        with pytest.raises(SimulationError):
            improvement(real, empty_b)

    def test_improvement_normal(self):
        a = simulate_system(
            [thread(0, Segment("cgra", kernel="slow", trip=10))],
            config(),
            "single",
        )
        assert improvement(a, a) == 0.0


class TestWaitCyclesExact:
    def test_fractional_wait_bit_equal(self):
        # wide kernels shrunk below their page need run at fractional
        # steady-state IIs, pushing release instants (and thus queue
        # waits) off the integer grid
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=7)),
            thread(1, Segment("cgra", kernel="wide", trip=5), arrival=1),
            thread(2, Segment("cgra", kernel="wide", trip=5), arrival=2),
            thread(3, Segment("cgra", kernel="slow", trip=3), arrival=3),
            thread(4, Segment("cgra", kernel="slow", trip=3), arrival=4),
        ]
        cfg = config(n_pages=3)
        result, oracle = verified(wl, cfg, "multithreaded")
        assert result.wait_cycles == float(oracle.wait_cycles)
        assert oracle.wait_cycles > 0

    def test_wait_accumulates_exactly_in_single_mode(self):
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=10))
            for t in range(3)
        ]
        result, oracle = verified(wl, config(), "single")
        assert result.wait_cycles == float(oracle.wait_cycles) == 120.0


class TestFuzzSweep:
    def test_cases_deterministic(self):
        assert make_case(7, 0) == make_case(7, 0)
        assert make_case(7, 0) != make_case(7, 1)

    @pytest.mark.parametrize("model", ARRIVAL_MODELS)
    def test_generated_trace_verifies(self, model):
        """Every arrival model of the trace generator, replayed through the
        oracle (the fuzz sweep below draws staggered arrivals only)."""
        wl = generate_trace(
            24,
            0.75,
            sorted(PROFILES),
            {name: p.ii_base for name, p in PROFILES.items()},
            seed=0,
            arrival_model=model,
            mean_arrival_gap=8.0,
            mean_total_work=300,
        )
        cfg = config(n_pages=8, validate_decisions=True)
        result, _oracle = verified(wl, cfg, "multithreaded")
        assert len(result.finish_times) == 24

    def test_small_sweep_green(self):
        report = run_fuzz(n_cases=12, seed=0)
        assert report.ok, report.render()
        assert report.cases == 12
        assert report.runs == 24  # both modes per case
        assert report.by_policy == {
            "halving": 3,
            "need-aware": 3,
            "fair-share": 3,
            "static-equal": 3,
        }
        assert report.by_mode == {"single": 12, "multithreaded": 12}
        assert "all green" in report.render()


class TestNetReallocations:
    """The engine applies each decision once per thread, from its net
    change, with or without overhead and boundary switching; the oracle
    applies the same decisions event by event.  Recording the decisions
    (from which the timeline is replayed) and validating each decision
    must change nothing: a run with both gives the bare run's result, and
    the timeline replayed from its decisions passes the invariant
    checker."""

    @pytest.mark.parametrize("model", ARRIVAL_MODELS)
    def test_generated_trace_same_with_and_without_timeline(self, model):
        # 16 pages and a deep queue: fair-share forms full 16-resident
        # batches and halving packs 16 one-page residents, shapes the fuzz
        # lattice (2-6 threads) never builds.
        # 60 single-phase threads keep each model's 12 pairs of runs near
        # 0.3 s on a 2-core VM (300 threads: ~2 s per model)
        wl = generate_trace(
            60,
            0.75,
            sorted(FUZZ_PROFILES),
            {name: p.ii_base for name, p in FUZZ_PROFILES.items()},
            seed=0,
            arrival_model=model,
            mean_arrival_gap=2.0,
            mean_total_work=40,
            classes=(ServiceClass("one", 1.0, phases=1),),
        )
        widest = {}
        for policy in _POLICIES:
            for overhead, boundary in ((0, False), (3, False), (0, True)):

                def cfg(validate):
                    return SystemConfig(
                        n_pages=16,
                        profiles=FUZZ_PROFILES,
                        policy=_make_policy(policy),
                        reconfig_overhead=overhead,
                        switch_at_iteration_boundary=boundary,
                        validate_decisions=validate,
                    )

                decisions = DecisionTrace()
                result = simulate_system(
                    wl, cfg(True), "multithreaded", decisions=decisions
                )
                bare = simulate_system(wl, cfg(False), "multithreaded")
                assert result == bare, (policy, overhead, boundary)
                assert (
                    check_invariants(result, workload=wl, decisions=decisions)
                    == []
                )
                widest[policy] = max(
                    widest.get(policy, 0),
                    *(len(d.residents) for d in decisions.decisions),
                )
        # 16 one-page residents: halving's next admission is refused
        # without a scan
        assert widest["fair-share"] == widest["halving"] == 16

    def test_same_length_shift_still_pays_the_overhead(self):
        # three pages, fair-share: thread 1 holds (2, 1) from t=0; thread
        # 2's arrival at t=8 moves it to (1, 1), same length and rate.
        # Unstalled it finishes at 10 * 4 = 40; the 5-cycle overhead of
        # that shift must still delay it to 45
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
            thread(2, Segment("cgra", kernel="slow", trip=20), arrival=8),
        ]
        for overhead, finish in ((0, 40), (5, 45)):
            cfg = config(
                n_pages=3, policy=FairSharePolicy(), reconfig_overhead=overhead
            )
            bare = simulate_system(wl, cfg, "multithreaded")
            assert bare.finish_times[1] == finish
            verified_result, _ = verified(wl, cfg, "multithreaded")
            assert verified_result == bare
