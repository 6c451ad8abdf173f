"""Tests for the multithreading runtime: allocation policies and the
CGRA manager (§VII-B thread arrival/departure protocol)."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    Allocation,
    FairSharePolicy,
    HalvingPolicy,
    NeedAwareHalvingPolicy,
    StaticEqualPolicy,
)
from repro.core.runtime import CGRAManager
from repro.util.errors import ReproError


class TestAllocation:
    def test_pages_enumeration(self):
        a = Allocation(2, 3)
        assert a.pages == (2, 3, 4)

    def test_validation(self):
        with pytest.raises(ReproError):
            Allocation(0, 0)
        with pytest.raises(ReproError):
            Allocation(-1, 2)


class TestHalvingPolicy:
    def test_first_thread_gets_everything(self):
        mgr = CGRAManager(8, HalvingPolicy())
        mgr.request(0)
        assert mgr.allocation_of(0) == Allocation(0, 8)

    def test_second_thread_halves_the_first(self):
        """§VII-B: "the thread using the most pages is decreased to use
        half as many pages and the new thread is resized to fit"."""
        mgr = CGRAManager(8, HalvingPolicy())
        mgr.request(0)
        events = mgr.request(1)
        assert mgr.allocation_of(0).length == 4
        assert mgr.allocation_of(1).length == 4
        assert any(e.tid == 0 for e in events)

    def test_four_threads_converge_to_quarters(self):
        mgr = CGRAManager(8, HalvingPolicy())
        for t in range(4):
            mgr.request(t)
        lengths = sorted(a.length for a in mgr.residents.values())
        assert lengths == [2, 2, 2, 2]

    def test_queueing_when_saturated(self):
        mgr = CGRAManager(2, HalvingPolicy())
        for t in range(3):
            mgr.request(t)
        assert mgr.allocation_of(2) is None
        assert mgr.queue == [2]

    def test_release_expands_neighbour(self):
        mgr = CGRAManager(8, HalvingPolicy())
        mgr.request(0)
        mgr.request(1)
        mgr.release(0)
        assert mgr.allocation_of(1).length == 8

    def test_release_admits_queued(self):
        mgr = CGRAManager(2, HalvingPolicy())
        for t in range(3):
            mgr.request(t)
        mgr.release(0)
        assert mgr.allocation_of(2) is not None

    def test_allocations_always_disjoint_and_contiguous(self):
        mgr = CGRAManager(16, HalvingPolicy())
        for t in range(10):
            mgr.request(t)
        taken = []
        for a in mgr.residents.values():
            taken.extend(a.pages)
        assert len(taken) == len(set(taken))

    @given(st.lists(st.sampled_from(["req", "rel"]), min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_property_manager_invariants(self, script):
        """Random arrival/departure scripts never violate pool invariants
        (the manager itself re-checks disjointness after every change)."""
        mgr = CGRAManager(8, HalvingPolicy())
        next_tid = 0
        live: list[int] = []
        for action in script:
            if action == "req":
                mgr.request(next_tid)
                live.append(next_tid)
                next_tid += 1
            elif live:
                mgr.release(live.pop(0))
        # every live thread is either resident or queued
        for t in live:
            assert (mgr.allocation_of(t) is not None) or (t in mgr.queue)


class TestFairShare:
    def test_even_split(self):
        mgr = CGRAManager(9, FairSharePolicy())
        for t in range(3):
            mgr.request(t)
        assert sorted(a.length for a in mgr.residents.values()) == [3, 3, 3]

    def test_remainder_distributed(self):
        mgr = CGRAManager(8, FairSharePolicy())
        for t in range(3):
            mgr.request(t)
        assert sorted(a.length for a in mgr.residents.values()) == [2, 3, 3]

    def test_release_rebalances(self):
        mgr = CGRAManager(8, FairSharePolicy())
        for t in range(4):
            mgr.request(t)
        mgr.release(0)
        assert sorted(a.length for a in mgr.residents.values()) == [2, 3, 3]


class TestStaticEqual:
    def test_fixed_slices(self):
        mgr = CGRAManager(8, StaticEqualPolicy(4))
        for t in range(4):
            mgr.request(t)
        assert sorted(a.length for a in mgr.residents.values()) == [2, 2, 2, 2]

    def test_no_resizing_on_release(self):
        mgr = CGRAManager(8, StaticEqualPolicy(4))
        for t in range(4):
            mgr.request(t)
        mgr.release(0)
        assert sorted(a.length for a in mgr.residents.values()) == [2, 2, 2]

    def test_overflow_queues(self):
        mgr = CGRAManager(8, StaticEqualPolicy(2))
        for t in range(3):
            mgr.request(t)
        assert mgr.allocation_of(2) is None

    def test_max_threads_validated(self):
        with pytest.raises(ReproError):
            StaticEqualPolicy(0)


class TestManagerErrors:
    def test_double_request_rejected(self):
        mgr = CGRAManager(4)
        mgr.request(0)
        with pytest.raises(ReproError):
            mgr.request(0)

    def test_unknown_release_rejected(self):
        mgr = CGRAManager(4)
        with pytest.raises(ReproError):
            mgr.release(42)

    def test_queued_release(self):
        mgr = CGRAManager(1)
        mgr.request(0)
        mgr.request(1, need=1)  # queued: the array is saturated
        assert mgr.needs == {1: 1}
        assert mgr.release(1) == []
        assert mgr.queue == []
        assert mgr.needs == {}  # a queued thread leaves no need behind

    def test_reallocation_counters(self):
        mgr = CGRAManager(8, HalvingPolicy())
        first = mgr.request(0)
        second = mgr.request(1)
        # one event per allocation change: the grant, then the halving
        assert [e.tid for e in first + second] == [0, 0, 1]
        assert second[0].before == Allocation(0, 8)
        assert second[0].after == Allocation(0, 4)

    def test_dropped_resident_raises(self):
        """The runtime never takes pages from a running thread: a policy
        whose answer drops a resident is an error, not a preemption."""
        mgr = CGRAManager(2, _ConfiscatingPolicy())
        mgr.request(0)
        with pytest.raises(ReproError, match="drop a running thread"):
            mgr.request(1)

    def test_release_keeping_the_departed_raises(self):
        class _Sticky(HalvingPolicy):
            def release(self, n_pages, residents, tid, needs=None):
                return dict(residents)

        mgr = CGRAManager(4, _Sticky())
        mgr.request(0)
        mgr.request(1)
        with pytest.raises(ReproError, match="keep a departing one"):
            mgr.release(0)


class _ConfiscatingPolicy(HalvingPolicy):
    """Scripted: thread 1's arrival takes thread 0's pages."""

    def admit(self, n_pages, residents, tid, needs=None):
        if tid == 1 and 0 in residents:
            return {1: residents[0]}
        return super().admit(n_pages, residents, tid, needs)


KEPT_POLICIES = {
    "halving": HalvingPolicy,
    "need-aware": NeedAwareHalvingPolicy,
    "fair-share": FairSharePolicy,
    "static-equal": lambda: StaticEqualPolicy(4),
}


@pytest.mark.parametrize("name", sorted(KEPT_POLICIES))
def test_admission_failure_ignores_the_newcomer(name):
    """The contract behind the manager's negative admission cache: when
    ``admit`` refuses one newcomer, it refuses every other tid and need
    until the resident map changes.  Seeded random resident maps (runs of
    free and held pages, random resident needs), four newcomers each."""
    policy = KEPT_POLICIES[name]()
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        n_pages = rng.randint(1, 8)
        residents: dict[int, Allocation] = {}
        cursor = tid = 0
        while cursor < n_pages:
            length = 1 if rng.random() < 0.6 else rng.randint(1, n_pages - cursor)
            if rng.random() < 0.85:
                residents[tid] = Allocation(cursor, length)
            cursor += length
            tid += 1
        needs = {t: rng.randint(1, n_pages) for t in residents}
        refused = set()
        for newcomer in range(tid, tid + 4):
            answer = policy.admit(
                n_pages,
                residents,
                newcomer,
                {**needs, newcomer: rng.randint(1, 2 * n_pages)},
            )
            refused.add(answer is None)
        assert len(refused) == 1, (n_pages, residents, needs)
        seen |= refused
    assert seen == {True, False}  # both outcomes drawn


class TestNeedAwareHalving:
    def test_grant_trimmed_to_need(self):
        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0, need=2)
        assert mgr.allocation_of(0).length == 2  # not all 8

    def test_surplus_serves_next_arrival_without_shrinking(self):
        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0, need=2)
        events = mgr.request(1, need=4)
        # thread 0 untouched: the newcomer fits in the free surplus
        assert mgr.allocation_of(0).length == 2
        assert mgr.allocation_of(1).length == 4
        assert all(e.tid != 0 for e in events)

    def test_falls_back_to_halving_without_needs(self):
        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0)
        assert mgr.allocation_of(0).length == 8

    def test_release_expansion_respects_need(self):
        mgr = CGRAManager(4, NeedAwareHalvingPolicy())
        mgr.request(0, need=1)
        mgr.request(1, need=4)
        mgr.release(1)
        assert mgr.allocation_of(0).length == 1  # never grown past its need
