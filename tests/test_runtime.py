"""Tests for the multithreading runtime: allocation policies and the
CGRA manager (§VII-B thread arrival/departure protocol)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    Allocation,
    FairSharePolicy,
    HalvingPolicy,
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
        mgr.request(0)
        mgr.request(1)
        assert mgr.threads[0].reallocations == 2  # initial + halving


class TestNeedAwareHalving:
    def test_grant_trimmed_to_need(self):
        from repro.core.policies import NeedAwareHalvingPolicy

        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0, need=2)
        assert mgr.allocation_of(0).length == 2  # not all 8

    def test_surplus_serves_next_arrival_without_shrinking(self):
        from repro.core.policies import NeedAwareHalvingPolicy

        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0, need=2)
        events = mgr.request(1, need=4)
        # thread 0 untouched: the newcomer fits in the free surplus
        assert mgr.allocation_of(0).length == 2
        assert mgr.allocation_of(1).length == 4
        assert all(e.tid != 0 for e in events)

    def test_falls_back_to_halving_without_needs(self):
        from repro.core.policies import NeedAwareHalvingPolicy

        mgr = CGRAManager(8, NeedAwareHalvingPolicy())
        mgr.request(0)
        assert mgr.allocation_of(0).length == 8

    def test_release_expansion_respects_need(self):
        from repro.core.policies import NeedAwareHalvingPolicy

        mgr = CGRAManager(4, NeedAwareHalvingPolicy())
        mgr.request(0, need=1)
        mgr.request(1, need=4)
        mgr.release(1)
        assert mgr.allocation_of(0).length == 1  # never grown past its need


class TestBestFit:
    def test_smallest_fitting_segment_trimmed_to_need(self):
        from repro.core.policies import BestFitPolicy

        mgr = CGRAManager(8, BestFitPolicy())
        mgr.request(0, need=2)  # takes 8, trimmed to 2: free = [2..8)
        mgr.request(1, need=4)  # free segment of 6 covers it, trimmed to 4
        assert mgr.allocation_of(0) == Allocation(0, 2)
        assert mgr.allocation_of(1) == Allocation(2, 4)
        # a 2-page need best-fits the remaining 2-page hole exactly
        mgr.request(2, need=2)
        assert mgr.allocation_of(2) == Allocation(6, 2)

    def test_without_need_takes_largest_free_segment(self):
        from repro.core.policies import BestFitPolicy

        mgr = CGRAManager(8, BestFitPolicy())
        mgr.request(0, need=2)
        mgr.request(1)  # no declared need: whole largest free segment
        assert mgr.allocation_of(1) == Allocation(2, 6)

    def test_falls_back_to_halving_when_full(self):
        from repro.core.policies import BestFitPolicy

        mgr = CGRAManager(8, BestFitPolicy())
        mgr.request(0)  # no need: takes all 8
        mgr.request(1)  # no free pages: halving splits thread 0
        assert mgr.allocation_of(0).length == 4
        assert mgr.allocation_of(1).length == 4

    def test_oversized_need_gets_largest_free(self):
        from repro.core.policies import BestFitPolicy

        mgr = CGRAManager(8, BestFitPolicy())
        mgr.request(0, need=2)
        mgr.request(1, need=16)  # nothing fits: grant the largest whole
        assert mgr.allocation_of(1) == Allocation(2, 6)


class TestPriorityEviction:
    def test_default_tid_priority_evicts_latest(self):
        from repro.core.policies import PriorityEvictionPolicy

        mgr = CGRAManager(2, PriorityEvictionPolicy())
        mgr.request(1)
        mgr.request(2)  # halved in
        mgr.release(1)
        mgr.request(3)  # free pages reused, no eviction
        events = mgr.request(0)  # full array: tid 3 (lowest priority) evicted
        assert mgr.allocation_of(0) is not None
        assert mgr.allocation_of(3) is None
        assert 3 in mgr.queue
        assert any(e.tid == 3 and e.after is None for e in events)

    def test_priority_map_overrides_tid_order(self):
        from repro.core.policies import PriorityEvictionPolicy

        # tid 0 is LOW priority here; tid 2 outranks everyone
        pol = PriorityEvictionPolicy({0: 0, 1: 1, 2: 5})
        mgr = CGRAManager(1, pol)
        mgr.request(0)
        events = mgr.request(2)
        assert mgr.allocation_of(2) == Allocation(0, 1)
        assert mgr.allocation_of(0) is None
        assert any(e.tid == 0 and e.after is None for e in events)

    def test_equal_priority_never_evicts(self):
        from repro.core.policies import PriorityEvictionPolicy

        pol = PriorityEvictionPolicy({0: 1, 1: 1})
        mgr = CGRAManager(1, pol)
        mgr.request(0)
        mgr.request(1)
        assert mgr.allocation_of(0) == Allocation(0, 1)
        assert 1 in mgr.queue

    def test_threads_absent_from_map_rank_zero(self):
        from repro.core.policies import PriorityEvictionPolicy

        pol = PriorityEvictionPolicy({5: 3})
        mgr = CGRAManager(1, pol)
        mgr.request(7)  # unknown tid: priority 0
        mgr.request(5)  # mapped: priority 3 -> evicts 7
        assert mgr.allocation_of(5) == Allocation(0, 1)
        assert mgr.allocation_of(7) is None
