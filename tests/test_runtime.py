"""Tests for the multithreading runtime: allocation policies and the
CGRA manager (§VII-B thread arrival/departure protocol)."""

from __future__ import annotations

import random
from itertools import groupby, product

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

    @pytest.mark.parametrize("policy", [HalvingPolicy, NeedAwareHalvingPolicy])
    @pytest.mark.parametrize("need", [0, -3])
    def test_bad_need_rejected_before_any_state(self, policy, need):
        """A need below one is refused before the thread is registered,
        so a corrected retry is admitted."""
        mgr = CGRAManager(4, policy())
        mgr.request(1)
        with pytest.raises(ReproError, match=f"page need must be >= 1, got {need}"):
            mgr.request(2, need=need)
        assert sorted(mgr.threads) == [1] and mgr.needs == {} and mgr.queue == []
        mgr.request(2, need=2)
        assert mgr.allocation_of(2) is not None and mgr.needs == {2: 2}

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

    def test_release_naming_the_departed_raises(self):
        class _Sticky(HalvingPolicy):
            def release(self, n_pages, residents, tid, needs=None):
                return {tid: residents[tid]}

        mgr = CGRAManager(4, _Sticky())
        mgr.request(0)
        mgr.request(1)
        with pytest.raises(ReproError, match="names the departing thread 0"):
            mgr.release(0)

    def test_unknown_thread_raises(self):
        class _Ghost(HalvingPolicy):
            def release(self, n_pages, residents, tid, needs=None):
                return {99: residents[tid]}

        mgr = CGRAManager(4, _Ghost())
        mgr.request(0)
        with pytest.raises(ReproError, match="unknown thread 99"):
            mgr.release(0)

    def test_admit_answer_without_the_newcomer_raises(self):
        """An answer that names every resident but not the newcomer would
        leave the newcomer neither resident nor queued."""

        class _Forgetful(HalvingPolicy):
            def admit(self, n_pages, residents, tid, needs=None):
                if residents:
                    return dict(residents)
                return super().admit(n_pages, residents, tid, needs)

        mgr = CGRAManager(4, _Forgetful())
        mgr.request(0)
        with pytest.raises(ReproError, match="leaves out newcomer 1"):
            mgr.request(1)

    def test_grant_to_a_queued_thread_raises(self):
        """Thread 0's release hands its page to queued thread 2 (a complete
        map, disjoint): thread 2 would be resident and still queued."""

        class _Handover(HalvingPolicy):
            def release(self, n_pages, residents, tid, needs=None):
                return {1: residents[1], 2: residents[0]}

        mgr = CGRAManager(2, _Handover())
        for t in range(3):
            mgr.request(t)
        assert mgr.queue == [2]
        with pytest.raises(ReproError, match="queued thread 2"):
            mgr.release(0)

    def test_confiscating_answer_fails_validation(self):
        """Thread 1's arrival is handed thread 0's segment.  The delta
        names no thread it should not, so the manager's name checks pass;
        the overlap is validation's to catch, as it always was for a
        complete map."""

        class _Confiscating(HalvingPolicy):
            def admit(self, n_pages, residents, tid, needs=None):
                if 0 in residents:
                    return {tid: residents[0]}
                return super().admit(n_pages, residents, tid, needs)

        mgr = CGRAManager(2, _Confiscating())
        mgr.request(0)
        with pytest.raises(ReproError, match="overlapping allocations"):
            mgr.request(1)

    @pytest.mark.parametrize("name", ["halving", "need-aware", "static-equal"])
    def test_complete_map_answers_match_deltas(self, name):
        """A delta's complete map is a valid answer: same events, same
        residents, on a seeded arrival/departure script."""

        class _CompleteMap:
            def __init__(self, inner):
                self.inner = inner

            def admit(self, n_pages, residents, tid, needs=None):
                delta = self.inner.admit(n_pages, residents, tid, needs)
                return None if delta is None else {**residents, **delta}

            def release(self, n_pages, residents, tid, needs=None):
                rest = {t: a for t, a in residents.items() if t != tid}
                return {**rest, **self.inner.release(n_pages, residents, tid, needs)}

        delta = CGRAManager(8, KEPT_POLICIES[name]())
        complete = CGRAManager(8, _CompleteMap(KEPT_POLICIES[name]()))
        rng = random.Random(1)
        live: list[int] = []
        for tid in range(200):
            if live and rng.random() < 0.5:
                gone = live.pop(rng.randrange(len(live)))
                assert delta.release(gone) == complete.release(gone)
            else:
                need = rng.randint(1, 8)
                assert delta.request(tid, need) == complete.request(tid, need)
                live.append(tid)
            assert list(delta.residents.items()) == list(
                complete.residents.items()
            )


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
    free and held pages, random resident needs), four newcomers each; one
    map in ten is fully packed with one-page residents, which the runs
    almost never build at 8 pages."""
    policy = KEPT_POLICIES[name]()
    rng = random.Random(0)
    seen = set()
    for _ in range(500):
        n_pages = rng.randint(1, 8)
        residents: dict[int, Allocation] = {}
        cursor = tid = 0
        if rng.random() < 0.1:
            residents = {t: Allocation(t, 1) for t in range(n_pages)}
            cursor = tid = n_pages
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


def _paper_halving(n_pages, residents, tid, needs=None, departing=None):
    """§VII-B halving on complete maps, written for reading: a newcomer
    takes the first widest free span in page order, else halves the largest
    resident by (length, -tid), which keeps the larger half; a departure
    grows the smallest adjacent neighbour by (length, tid).  With *needs*,
    every segment is then trimmed to its thread's need."""
    out = dict(residents)
    if departing is not None:
        gone = out.pop(departing)
        near = [
            t
            for t, a in out.items()
            if a.start + a.length == gone.start or a.start == gone.start + gone.length
        ]
        if near:
            t = min(near, key=lambda t: (out[t].length, t))
            start = min(out[t].start, gone.start)
            out[t] = Allocation(start, out[t].length + gone.length)
    else:
        held = {p for a in out.values() for p in a.pages}
        runs = groupby(range(n_pages), held.__contains__)
        free = [list(pages) for is_held, pages in runs if not is_held]
        if free:
            run = max(free, key=len)  # the first of the widest
            out[tid] = Allocation(run[0], len(run))
        else:
            victim = max(out, key=lambda t: (out[t].length, -t))
            a = out[victim]
            if a.length == 1:
                return None
            keep = (a.length + 1) // 2
            out[victim] = Allocation(a.start, keep)
            out[tid] = Allocation(a.start + keep, a.length - keep)
    if needs:
        out = {t: Allocation(a.start, min(a.length, needs[t])) for t, a in out.items()}
    return out


def _every_map(n_pages):
    """Every split of *n_pages* into runs, each run held or free; tids in
    page order, then reversed (the tie-breaks compare tids)."""
    for cuts in product((False, True), repeat=n_pages - 1):
        bounds = [0] + [p + 1 for p, cut in enumerate(cuts) if cut] + [n_pages]
        runs = list(zip(bounds, bounds[1:]))
        for held in product((False, True), repeat=len(runs)):
            segs = [Allocation(s, e - s) for (s, e), h in zip(runs, held) if h]
            yield dict(enumerate(segs))
            yield dict(zip(reversed(range(len(segs))), segs))


@pytest.mark.parametrize("n_pages", range(1, 7))
def test_halving_family_matches_the_paper_rule(n_pages):
    """Exhaustive over every resident map of *n_pages*: the deltas of
    HalvingPolicy (no needs) and NeedAwareHalvingPolicy (admit: residents
    at their need, every newcomer need; release: residents one page short
    of it), applied to the map, equal the reference above, and name only
    threads whose segment changes."""

    def applied(residents, delta, departing=None):
        assert all(residents.get(t) != a for t, a in delta.items())
        rest = {t: a for t, a in residents.items() if t != departing}
        return {**rest, **delta}

    for residents in _every_map(n_pages):
        newcomer = len(residents)
        at_need = {t: a.length for t, a in residents.items()}
        for needs in [None] + [
            {**at_need, newcomer: k} for k in range(1, n_pages + 1)
        ]:
            policy = NeedAwareHalvingPolicy() if needs else HalvingPolicy()
            expect = _paper_halving(n_pages, residents, newcomer, needs)
            delta = policy.admit(n_pages, residents, newcomer, needs)
            got = None if delta is None else applied(residents, delta)
            assert got == expect, (residents, needs)
        short = {t: a.length + 1 for t, a in residents.items()}
        for departing in residents:
            for needs in (None, short):
                policy = NeedAwareHalvingPolicy() if needs else HalvingPolicy()
                expect = _paper_halving(
                    n_pages, residents, None, needs, departing=departing
                )
                delta = policy.release(n_pages, residents, departing, needs)
                got = applied(residents, delta, departing)
                assert got == expect, (residents, departing, needs)


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
