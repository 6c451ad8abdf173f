"""Tests for the trace-driven workload generator (datacenter-scale sim).

Covers the three properties trace-driven runs depend on: seeded
determinism (same seed, same trace, bit for bit), arrival-rate sanity for
every arrival model, and the service-class mix tracking its declared
weights."""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.workload import (
    ARRIVAL_MODELS,
    DEFAULT_CLASSES,
    ServiceClass,
    _float_sum,
    generate_trace,
    generate_workload,
)
from repro.util.errors import WorkloadError

PROFILES = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=1),
    "slow": KernelProfile("slow", ii_base=4, ii_paged=4, pages_used=1),
}
NOMINAL = {"fast": 1, "slow": 4}


def trace(n=200, seed=11, **kw):
    return generate_trace(n, 0.75, ["fast", "slow"], NOMINAL, seed=seed, **kw)


class TestDeterminism:
    @pytest.mark.parametrize("model", ARRIVAL_MODELS)
    def test_same_seed_same_trace(self, model):
        a = trace(arrival_model=model)
        b = trace(arrival_model=model)
        assert a == b

    @pytest.mark.parametrize("model", ARRIVAL_MODELS)
    def test_different_seed_different_trace(self, model):
        assert trace(seed=1, arrival_model=model) != trace(
            seed=2, arrival_model=model
        )

    @pytest.mark.parametrize(
        "make, seed, digest",
        [
            ("all-at-once", 11, "d502cdbc28cc85c60df2169b241b5a7cfe6668242f8e101c4230168e697453cb"),
            ("all-at-once", 12, "410a6f518a09930124e367cec511f7e55b2d7b717a1fb1c2c8aae4812dccd9c5"),
            ("poisson", 11, "a7ccdc55a5c00cd9ab4eddcff038add245ad60beb18b14ad3958e5a5298cd7a4"),
            ("poisson", 12, "e04b1aa4625364818e06d236f31653c335782b312f56a8e9f01c789ae9b364da"),
            ("bursty", 11, "1c560652e1f6c70753aab05146602b40d79acfa931c15134dcf20a7a69eace44"),
            ("bursty", 12, "92bebc06bbc9505b00a35fba804e9032f1645915ec183f78f96a77637bdd338d"),
            ("workload", 0, "f744841babc6ee6f07da8475849dc25313893f1d7b53c09631faf3e5e98a012c"),
            ("workload", 1, "d221477a8f404a71e121ccee395442424cec60e8f7bcfa9c0a194031080f14a5"),
        ],
    )
    def test_generators_are_pinned_bit_for_bit(self, make, seed, digest):
        """Recorded runs replay only while the generators draw in the same
        order and round the same doubles: the sha256 of each trace's
        ``repr`` is pinned (one per arrival model, and the fixed-phase
        generator with staggered launches, at two seeds each)."""
        if make == "workload":
            wl = generate_workload(
                16, 0.75, ["fast", "slow"], NOMINAL, seed=seed, mean_arrival_gap=50
            )
        else:
            wl = trace(seed=seed, arrival_model=make)
        assert hashlib.sha256(repr(wl).encode()).hexdigest() == digest

    def test_weight_sums_round_as_numpy(self):
        """Phase and class weights are normalised by a sum rounded as
        numpy's ``ndarray.sum()`` rounds up to 7 values: left to right
        (``sum()`` compensates on Python 3.12 and rounds some of these apart)."""
        rng = np.random.default_rng(5)
        for n in [n for n in range(1, 8) for _ in range(200)]:
            values = (rng.random(n) + 0.2).tolist()
            assert _float_sum(values) == float(np.array(values).sum()), values

    def test_simulation_of_trace_is_deterministic(self):
        wl = trace(n=40, arrival_model="bursty", mean_total_work=200)
        cfg = SystemConfig(n_pages=4, profiles=PROFILES)
        r1 = simulate_system(wl, cfg, "multithreaded")
        r2 = simulate_system(wl, cfg, "multithreaded")
        assert r1.makespan == r2.makespan
        assert r1.reallocations == r2.reallocations


class TestArrivals:
    @pytest.mark.parametrize("model", ARRIVAL_MODELS)
    def test_nondecreasing_from_zero(self, model):
        arr = [t.arrival for t in trace(arrival_model=model)]
        assert arr[0] == 0
        assert arr == sorted(arr)
        assert all(a >= 0 for a in arr)

    def test_all_at_once(self):
        assert all(t.arrival == 0 for t in trace(arrival_model="all-at-once"))

    def test_poisson_rate(self):
        # mean inter-arrival gap should land near the requested mean
        arr = [
            t.arrival
            for t in trace(
                n=2000, arrival_model="poisson", mean_arrival_gap=50.0
            )
        ]
        mean_gap = arr[-1] / (len(arr) - 1)
        assert mean_gap == pytest.approx(50.0, rel=0.15)

    def test_bursty_clusters_and_rate(self):
        wl = trace(
            n=2000,
            arrival_model="bursty",
            mean_arrival_gap=50.0,
            burst_size=8,
        )
        arr = [t.arrival for t in wl]
        # long-run rate matches poisson's within slack
        mean_gap = arr[-1] / (len(arr) - 1)
        assert mean_gap == pytest.approx(50.0, rel=0.35)
        # but arrivals cluster: far fewer distinct instants than threads
        assert len(set(arr)) < len(arr) / 3

    def test_unknown_model_rejected(self):
        """Also at a zero mean gap, which launches every thread at cycle 0:
        the model name and the gap's sign are checked first."""
        with pytest.raises(WorkloadError, match="unknown arrival model"):
            trace(arrival_model="tidal")
        with pytest.raises(WorkloadError, match="unknown arrival model"):
            trace(n=3, arrival_model="tidal", mean_arrival_gap=0)
        with pytest.raises(WorkloadError, match="mean_arrival_gap"):
            trace(n=3, mean_arrival_gap=-5.0)
        assert all(t.arrival == 0 for t in trace(n=3, mean_arrival_gap=0))

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mean_arrival_gap=math.inf),
            dict(mean_arrival_gap=math.nan),
            dict(mean_total_work=-500),
            dict(mean_total_work=0),
            dict(mean_total_work=math.inf),
            dict(mean_total_work=math.nan),
        ],
        ids=["gap-inf", "gap-nan", "work-neg", "work-0", "work-inf", "work-nan"],
    )
    def test_rejects_non_finite_or_non_positive_sizes(self, bad):
        """An infinite or NaN gap gave arrivals ``[0, -2**63, 0]`` (negative
        and not monotone), and a work of -500 gave every CPU segment 1 cycle
        and every trip 1."""
        with pytest.raises(WorkloadError, match=next(iter(bad))):
            generate_trace(
                3, 0.75, ["a"], {"a": 2}, seed=1, arrival_model="poisson", **bad
            )



def phases_of(t) -> int:
    return len(t.segments) // 2


class TestPriorityClasses:
    """The service-class mix; a thread's class shows in its phase count
    (6 / 4 / 2 for the default batch / interactive / realtime classes)."""

    def test_default_mix_tracks_weights(self):
        wl = trace(n=4000)
        counts = {c.phases: 0 for c in DEFAULT_CLASSES}
        for t in wl:
            counts[phases_of(t)] += 1
        for c in DEFAULT_CLASSES:
            assert counts[c.phases] / len(wl) == pytest.approx(
                c.weight, abs=0.05
            )

    def test_work_scale_orders_thread_lengths(self):
        wl = trace(n=3000, mean_total_work=4000)
        by_class: dict[int, list[int]] = {}
        for t in wl:
            total = sum(s.cycles for s in t.segments if s.kind == "cpu") + sum(
                s.trip * NOMINAL[s.kernel]
                for s in t.segments
                if s.kind == "cgra"
            )
            by_class.setdefault(phases_of(t), []).append(total)
        means = {
            p: sum(v) / len(v) for p, v in by_class.items()
        }
        # batch threads are the long ones; realtime the short ones
        assert means[6] > means[4] > means[2]

    def test_phase_counts_follow_class(self):
        wl = trace(n=500)
        assert {phases_of(t) for t in wl} == {c.phases for c in DEFAULT_CLASSES}
        for t in wl:
            kinds = [s.kind for s in t.segments]
            assert kinds == ["cpu", "cgra"] * phases_of(t)

    def test_custom_single_class(self):
        only = (ServiceClass("only", weight=1.0, phases=3),)
        wl = trace(n=50, classes=only)
        assert all(len(t.segments) == 6 for t in wl)

    def test_class_validation(self):
        with pytest.raises(WorkloadError):
            ServiceClass("bad", weight=0.0)
        with pytest.raises(WorkloadError):
            ServiceClass("bad", weight=1.0, work_scale=-1.0)
        with pytest.raises(WorkloadError):
            ServiceClass("bad", weight=1.0, phases=0)
        with pytest.raises(WorkloadError):
            trace(classes=())
