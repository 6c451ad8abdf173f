"""Cross-module invariants, property-tested.

These tie the layers together: quantities computed independently by the
compiler, the page-schedule extractor, the transformation and the
simulators must agree with each other.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.compiler.ems import MapperConfig, map_dfg
from repro.compiler.mapping import materialized_ops
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster, steady_state_ii
from repro.core.paging import PageLayout, choose_page_shape
from repro.core.transform_check import check_placement
from repro.dfg.random_dfg import random_arrays, random_dfg
from repro.kernels import bind_memory, get_kernel, kernel_names
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.util.errors import MappingError


@pytest.fixture(scope="module")
def sor_mapped():
    cgra = CGRA(4, 4, rf_depth=8)
    dfg = get_kernel("sor").build()
    return cgra, dfg, map_dfg(dfg, cgra)


class TestCrossLayerAgreement:
    def test_simulated_firings_match_slot_math(self, sor_mapped):
        """firings == trip * (materialized ops + route steps - prologue
        skips of loop-carried routes)."""
        cgra, dfg, m = sor_mapped
        trip = 11
        _, arrays, _ = get_kernel("sor").fresh(seed=0, trip=trip)
        mem = bind_memory(arrays)
        res = simulate(lower_mapping(m, mem, trip), cgra, mem)
        expected = trip * len(materialized_ops(dfg))
        for e in dfg.edges.values():
            steps = len(m.route(e.id).steps)
            expected += steps * max(0, trip - e.distance)
        assert res.firings == expected

    def test_page_schedule_occupancy_vs_mapping(self, full_width):
        cgra = CGRA(4, 4, rf_depth=16)
        layout = PageLayout(cgra, (2, 2))
        pm = full_width(get_kernel("swim").build(), cgra, layout)
        items = sum(len(i) for i in pm.page_schedule.instances.values())
        routes = sum(len(r.steps) for r in pm.mapping.routes.values())
        assert items == len(pm.mapping.placements) + routes

    def test_profile_ii_eff_matches_placement(self):
        """The system model's steady-state II equals the placement the
        retargeter would actually run."""
        for n, ii_p, m in [(4, 3, 2), (6, 2, 4), (5, 2, 3)]:
            from_placement = PageMaster(n, ii_p, m).place().ii_q_effective()
            assert steady_state_ii(n, ii_p, m) == from_placement


class TestPagedProperties:
    @given(
        kernel=st.sampled_from(["sor", "laplace", "wavelet", "mpeg", "gsr"]),
        size=st.sampled_from([4, 6]),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_paged_ii_at_least_baseline_floor(self, kernel, size):
        """The paged II can beat the baseline heuristic but never the
        recurrence bound, and pages_used never exceeds the layout."""
        from repro.dfg.analysis import rec_mii

        cgra = CGRA(size, size, rf_depth=16)
        layout = PageLayout(cgra, choose_page_shape(4, size, size))
        dfg = get_kernel(kernel).build()
        pm = map_dfg_paged(dfg, cgra, layout)
        assert pm.ii >= rec_mii(dfg)
        assert 1 <= pm.pages_used <= layout.num_pages

    @given(seed=st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_property_page_need_consistent_with_activity(self, seed):
        cgra = CGRA(4, 4, rf_depth=16)
        layout = PageLayout(cgra, (2, 2))
        dfg = random_dfg(seed, n_ops=6)
        try:
            pm = map_dfg_paged(
                dfg, cgra, layout, config=MapperConfig(max_ii=8, attempts_per_ii=2)
            )
        except MappingError:
            return
        # pages_used is an upper bound on the need: the prefix contains the
        # whole mapping and at least one active page (a disconnected random
        # DFG can legally leave a middle page of the prefix idle)
        assert any(
            pm.page_schedule.instance(n, t).items
            for n in range(pm.pages_used)
            for t in range(pm.ii)
        )


class TestPlacementProperties:
    @given(
        n=st.integers(1, 10),
        ii=st.integers(1, 3),
        m_frac=st.floats(0.1, 1.0),
        batches=st.integers(1, 40),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_finite_placements_always_valid(self, n, ii, m_frac, batches):
        m = max(1, min(n, round(m_frac * n)))
        p = PageMaster(n, ii, m).place(batches=batches)
        assert p.batches == batches
        check_placement(p)
        # every batch fully placed, timing monotone per page
        for page in range(n):
            times = [p.time(page, b) for b in range(batches)]
            assert times == sorted(times)
            assert len(set(times)) == len(times)

    @given(n=st.integers(2, 8), ii=st.integers(1, 3))
    @settings(max_examples=20, deadline=None)
    def test_property_makespan_at_least_work(self, n, ii):
        """No column can hold more than one instance per row: makespan >=
        total instances / M."""
        for m in (1, max(1, n // 2), n):
            p = PageMaster(n, ii, m).place(batches=10)
            assert p.makespan >= (n * 10) / m


class TestWorkloadProperties:
    @given(
        seed=st.integers(0, 300),
        need=st.floats(0.2, 0.9),
        n=st.integers(1, 6),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_generated_need_tracks_request(self, seed, need, n):
        from repro.sim.workload import generate_workload

        names = kernel_names()[:3]
        nominal = {k: 2 for k in names}
        wl = generate_workload(
            n, need, names, nominal, seed=seed, mean_total_work=50_000
        )
        for t in wl:
            acc = sum(2 * s.trip for s in t.segments if s.kind == "cgra")
            cpu = sum(s.cycles for s in t.segments if s.kind == "cpu")
            assert acc / (acc + cpu) == pytest.approx(need, abs=0.08)

    @given(seed=st.integers(0, 300))
    @settings(max_examples=20, deadline=None)
    def test_property_random_arrays_cover_every_access(self, seed):
        from repro.sim.reference import run_reference

        dfg = random_dfg(seed, n_ops=7)
        arrays = random_arrays(dfg, seed, trip=9)
        run_reference(dfg, arrays, 9)  # must not hit bounds errors
