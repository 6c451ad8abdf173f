"""Tests for the multithreaded system model (§VII-B): workload generation
and the discrete-event simulation of both CGRA modes."""

from __future__ import annotations

import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import FairSharePolicy, StaticEqualPolicy
from repro.sim.fuzz import _case_inputs, make_case
from repro.sim.oracle import check_invariants
from repro.sim.system import (
    KernelProfile,
    SystemConfig,
    SystemResult,
    improvement,
)
from repro.sim.system import simulate_system as _simulate_system
from repro.sim.trace import DecisionTrace
from repro.sim.workload import Segment, ThreadSpec, generate_workload
from repro.util.errors import SimulationError, WorkloadError

PROFILES = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=1),
    "slow": KernelProfile("slow", ii_base=4, ii_paged=4, pages_used=1),
    "wide": KernelProfile("wide", ii_base=1, ii_paged=2, pages_used=4),
}


def simulate_system(workload, cfg, mode):
    """Checked wrapper: every simulation in this module also records its
    decisions and passes them through the oracle's invariant checker,
    which audits the timeline replayed from them, so the whole suite
    doubles as invariant coverage."""
    decisions = DecisionTrace()
    result = _simulate_system(workload, cfg, mode, decisions=decisions)
    problems = check_invariants(result, workload=workload, decisions=decisions)
    assert not problems, "; ".join(problems)
    return result


def config(n_pages=4, **kw):
    return SystemConfig(n_pages=n_pages, profiles=PROFILES, **kw)


def thread(tid, *segs):
    return ThreadSpec(tid, tuple(segs))


class TestWorkloadGeneration:
    def test_shape(self):
        wl = generate_workload(4, 0.5, ["fast", "slow"], {"fast": 1, "slow": 4}, seed=1)
        assert len(wl) == 4
        for t in wl:
            kinds = [s.kind for s in t.segments]
            assert kinds == ["cpu", "cgra"] * (len(kinds) // 2)

    def test_need_fraction_approximated(self):
        for need in (0.5, 0.75, 0.875):
            wl = generate_workload(
                6, need, ["fast"], {"fast": 1}, seed=3, mean_total_work=100_000
            )
            for t in wl:
                acc = sum(s.trip for s in t.segments if s.kind == "cgra")  # II 1
                cpu = sum(s.cycles for s in t.segments if s.kind == "cpu")
                assert acc / (acc + cpu) == pytest.approx(need, abs=0.05)

    def test_deterministic(self):
        a = generate_workload(3, 0.5, ["fast"], {"fast": 1}, seed=9)
        b = generate_workload(3, 0.5, ["fast"], {"fast": 1}, seed=9)
        assert a == b

    def test_validation(self):
        with pytest.raises(WorkloadError):
            generate_workload(0, 0.5, ["fast"], {"fast": 1})
        with pytest.raises(WorkloadError):
            generate_workload(1, 1.5, ["fast"], {"fast": 1})
        with pytest.raises(WorkloadError):
            generate_workload(1, 0.5, [], {})
        with pytest.raises(WorkloadError):
            generate_workload(1, 0.5, ["missing"], {"fast": 1})

    @pytest.mark.parametrize(
        "bad", [dict(phases_per_thread=0), dict(mean_arrival_gap=-5)]
    )
    def test_rejects_what_generate_trace_and_service_class_reject(self, bad):
        # zero phases gave every thread no segment (an all-zero SLO summary);
        # a negative gap launched every thread at once
        with pytest.raises(WorkloadError):
            generate_workload(2, 0.5, ["fast"], {"fast": 1}, **bad)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mean_arrival_gap=math.inf),
            dict(mean_arrival_gap=math.nan),
            dict(mean_total_work=0),
            dict(mean_total_work=-500),
            dict(mean_total_work=math.inf),
            dict(mean_total_work=math.nan),
        ],
        ids=["gap-inf", "gap-nan", "work-0", "work-neg", "work-inf", "work-nan"],
    )
    def test_rejects_non_finite_or_non_positive_sizes(self, bad):
        # an infinite gap overflowed the integer arrival (OverflowError), a
        # NaN gap launched every thread at once, and a work of 0 gave every
        # CPU segment 1 cycle and every trip 1
        with pytest.raises(WorkloadError, match=next(iter(bad))):
            generate_workload(3, 0.5, ["fast"], {"fast": 2}, seed=1, **bad)

    def test_segment_validation(self):
        with pytest.raises(WorkloadError):
            Segment("cpu", cycles=0)
        with pytest.raises(WorkloadError):
            Segment("cgra", kernel="", trip=1)
        with pytest.raises(WorkloadError):
            Segment("banana")


class TestSingleMode:
    def test_one_thread_time(self):
        wl = [thread(0, Segment("cpu", cycles=100), Segment("cgra", kernel="slow", trip=10))]
        res = simulate_system(wl, config(), "single")
        assert res.makespan == 100 + 10 * 4

    def test_fifo_serialisation(self):
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
        ]
        res = simulate_system(wl, config(), "single")
        assert res.makespan == 80  # 40 + 40, serialized
        assert res.wait_cycles == 40

    def test_cpu_overlaps_cgra(self):
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=25)),
            thread(1, Segment("cpu", cycles=100)),
        ]
        res = simulate_system(wl, config(), "single")
        assert res.makespan == 100

    def test_baseline_is_the_one_slot_manager(self):
        """The single-threaded baseline is the page manager with one
        whole-array slot at the unconstrained II: on the fuzz lattice,
        ``"single"`` and ``"multithreaded"`` under ``StaticEqualPolicy(1)``
        with ``ii_paged = ii_base`` decide the same grants at the same
        times and give the same result (only the multithreaded run counts
        its queue-head admissions as reallocations)."""
        for i in range(48):
            workload, cfg = _case_inputs(make_case(i, 0))
            single = DecisionTrace()
            base = _simulate_system(workload, cfg, "single", decisions=single)
            cfg.policy = StaticEqualPolicy(1)
            cfg.profiles = {
                k: KernelProfile(k, p.ii_base, p.ii_base)
                for k, p in cfg.profiles.items()
            }
            managed = DecisionTrace()
            one_slot = _simulate_system(
                workload, cfg, "multithreaded", decisions=managed
            )
            assert single.decisions == managed.decisions, i
            for f in fields(SystemResult):
                if f.name not in ("mode", "reallocations"):
                    assert getattr(base, f.name) == getattr(one_slot, f.name), (
                        i,
                        f.name,
                    )

    def test_negative_reconfig_overhead_rejected(self):
        with pytest.raises(SimulationError, match="reconfig_overhead"):
            config(reconfig_overhead=-5)
        assert config(reconfig_overhead=0).reconfig_overhead == 0


class TestMultithreadedMode:
    def test_small_kernels_run_concurrently(self):
        """Two one-page kernels coexist at full speed (§VII-B: scheduled to
        the unused portion, no transformation)."""
        wl = [
            thread(0, Segment("cgra", kernel="slow", trip=10)),
            thread(1, Segment("cgra", kernel="slow", trip=10)),
        ]
        res = simulate_system(wl, config(), "multithreaded")
        assert res.makespan == 40  # fully parallel

    def test_wide_kernel_shrinks_and_slows(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="wide", trip=8)),
        ]
        res = simulate_system(wl, config(), "multithreaded")
        # each on 2 of its 4 needed pages: II_eff = 2 * (4/2) = 4
        assert res.makespan == 8 * 4

    def test_expansion_after_departure(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="wide", trip=4)),
        ]
        res = simulate_system(wl, config(), "multithreaded")
        # both at II 4 until t=16 when thread 1 finishes; thread 0 then
        # expands to 4 pages (II 2) with 4 iterations left -> 16 + 8
        assert res.makespan == 24

    def test_queueing_when_more_threads_than_pages(self):
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=5)) for t in range(6)
        ]
        res = simulate_system(wl, config(n_pages=4), "multithreaded")
        assert res.makespan == 40  # two waves of 20 cycles
        assert res.wait_cycles > 0

    def test_improvement_positive_under_contention(self):
        wl = [
            thread(
                t,
                Segment("cpu", cycles=50),
                Segment("cgra", kernel="slow", trip=20),
                Segment("cpu", cycles=50),
            )
            for t in range(4)
        ]
        base = simulate_system(wl, config(), "single")
        mt = simulate_system(wl, config(), "multithreaded")
        assert improvement(base, mt) > 0.5

    def test_single_thread_pays_constraint_cost(self):
        wl = [thread(0, Segment("cgra", kernel="wide", trip=10))]
        base = simulate_system(wl, config(), "single")
        mt = simulate_system(wl, config(), "multithreaded")
        assert improvement(base, mt) == pytest.approx(1 / 2 - 1)  # ii 1 -> 2

    def test_reconfig_overhead_charged(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            thread(1, Segment("cgra", kernel="wide", trip=8)),
        ]
        fast_res = simulate_system(wl, config(), "multithreaded")
        slow_res = simulate_system(
            wl, config(reconfig_overhead=10), "multithreaded"
        )
        assert slow_res.makespan > fast_res.makespan

    def test_fair_share_policy_plugs_in(self):
        wl = [
            thread(t, Segment("cgra", kernel="slow", trip=5)) for t in range(3)
        ]
        res = simulate_system(
            wl, config(policy=FairSharePolicy()), "multithreaded"
        )
        assert res.makespan == 20

    def test_unknown_kernel_rejected(self):
        wl = [thread(0, Segment("cgra", kernel="nope", trip=1))]
        with pytest.raises(SimulationError):
            simulate_system(wl, config(), "multithreaded")

    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            simulate_system([], config(), "turbo")

    def test_utilization_bounded(self):
        wl = [thread(0, Segment("cgra", kernel="slow", trip=10))]
        res = simulate_system(wl, config(), "multithreaded")
        assert 0.0 <= res.cgra_utilization <= 1.0


class TestDeterminismProperty:
    @given(
        n_threads=st.integers(1, 8),
        need=st.sampled_from([0.5, 0.75, 0.875]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_modes_deterministic_and_finite(self, n_threads, need, seed):
        nominal = {k: p.ii_paged for k, p in PROFILES.items()}
        wl = generate_workload(
            n_threads, need, sorted(PROFILES), nominal, seed=seed,
            mean_total_work=5_000,
        )
        r1 = simulate_system(wl, config(), "multithreaded")
        r2 = simulate_system(wl, config(), "multithreaded")
        assert r1.makespan == r2.makespan
        assert r1.makespan > 0
        base = simulate_system(wl, config(), "single")
        assert base.makespan > 0
        # every thread finished in both modes
        assert len(r1.finish_times) == n_threads
        assert len(base.finish_times) == n_threads


class TestArrivals:
    def test_staggered_arrival_shifts_finish(self):
        wl = [
            ThreadSpec(0, (Segment("cpu", cycles=100),), arrival=0),
            ThreadSpec(1, (Segment("cpu", cycles=100),), arrival=500),
        ]
        res = simulate_system(wl, config(), "multithreaded")
        assert res.finish_times[0] == 100
        assert res.finish_times[1] == 600
        assert res.makespan == 600

    def test_generator_staggered(self):
        wl = generate_workload(
            4, 0.5, ["fast"], {"fast": 1}, seed=5, mean_arrival_gap=1000
        )
        arrivals = [t.arrival for t in wl]
        assert arrivals[0] == 0
        assert arrivals == sorted(arrivals)
        assert arrivals[-1] > 0
        res = simulate_system(wl, config(), "multithreaded")
        assert len(res.finish_times) == 4

    def test_generator_default_all_at_zero(self):
        wl = generate_workload(3, 0.5, ["fast"], {"fast": 1}, seed=5)
        assert all(t.arrival == 0 for t in wl)

    def test_late_arrival_into_busy_array(self):
        wl = [
            ThreadSpec(0, (Segment("cgra", kernel="wide", trip=100),), arrival=0),
            ThreadSpec(1, (Segment("cgra", kernel="wide", trip=10),), arrival=50),
        ]
        res = simulate_system(wl, config(), "multithreaded")
        # thread 0 ran alone (II 2) until t=50, then both share at II 4
        assert res.finish_times[1] > 50
        assert len(res.finish_times) == 2


class TestIterationBoundarySwitching:
    def test_switch_waits_for_inflight_iteration(self):
        """§VII-B: with boundary switching, the reshaped thread finishes
        its current iteration at the old rate first."""
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            ThreadSpec(1, (Segment("cgra", kernel="wide", trip=8),), arrival=1),
        ]
        immediate = simulate_system(wl, config(), "multithreaded")
        boundary = simulate_system(
            wl, config(switch_at_iteration_boundary=True), "multithreaded"
        )
        # at t=1 thread 0 is mid-iteration (rate 1*... ii_paged=2): half an
        # iteration in flight; boundary mode finishes it first
        assert boundary.makespan >= immediate.makespan
        assert len(boundary.finish_times) == 2

    def test_boundary_noop_when_switch_lands_on_boundary(self):
        wl = [
            thread(0, Segment("cgra", kernel="wide", trip=8)),
            ThreadSpec(1, (Segment("cgra", kernel="wide", trip=8),), arrival=2),
        ]
        immediate = simulate_system(wl, config(), "multithreaded")
        boundary = simulate_system(
            wl, config(switch_at_iteration_boundary=True), "multithreaded"
        )
        # arrival at t=2 is exactly one full iteration (II 2): no stall
        assert boundary.makespan == immediate.makespan
