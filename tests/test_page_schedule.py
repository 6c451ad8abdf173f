"""Tests for page-level schedule extraction and fold mirroring."""

from __future__ import annotations

import pytest

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.core.mirroring import boundary_axis, fold_orientations
from repro.core.page_schedule import PageSchedule, extract_page_schedule
from repro.core.paging import Orientation, PageLayout
from repro.kernels import get_kernel
from repro.util.errors import ConstraintViolation, TransformError


@pytest.fixture(scope="module")
def swim_paged(full_width):
    cgra = CGRA(4, 4, rf_depth=20)
    layout = PageLayout(cgra, (2, 2))
    return full_width(get_kernel("swim").build(), cgra, layout)


class TestExtraction:
    def test_every_item_accounted(self, swim_paged):
        sched = swim_paged.page_schedule
        n_items = sum(len(inst) for inst in sched.instances.values())
        n_routes = sum(
            len(r.steps) for r in swim_paged.mapping.routes.values()
        )
        assert n_items == len(swim_paged.mapping.placements) + n_routes

    def test_items_carry_local_coords(self, swim_paged):
        sched = swim_paged.page_schedule
        h, w = sched.layout.shape
        for inst in sched.instances.values():
            for item in inst.items:
                assert 0 <= item.local.row < h and 0 <= item.local.col < w

    def test_occupancy_in_unit_range(self, swim_paged):
        assert 0.0 < swim_paged.page_schedule.occupancy() <= 1.0

    def test_instance_lookup_modulo(self, swim_paged):
        sched = swim_paged.page_schedule
        assert sched.instance(0, 0).items == sched.instance(0, sched.ii).items

    def test_empty_instance_returned_for_gaps(self, swim_paged):
        sched = swim_paged.page_schedule
        # instance() never KeyErrors; gaps come back empty
        for n in range(sched.num_pages):
            for t in range(sched.ii):
                inst = sched.instance(n, t)
                assert inst.page == n

    def test_validate_ring_rejects_backward_dep(self, swim_paged):
        sched = swim_paged.page_schedule
        bad = PageSchedule(
            sched.layout,
            sched.ii,
            dict(sched.instances),
            {((1, 0), (0, 1), "ring")},
        )
        with pytest.raises(ConstraintViolation):
            bad.validate_ring()

    def test_validate_ring_rejects_page_changing_self_dep(self, swim_paged):
        sched = swim_paged.page_schedule
        bad = PageSchedule(
            sched.layout, sched.ii, dict(sched.instances), {((0, 0), (1, 1), "self")}
        )
        with pytest.raises(ConstraintViolation):
            bad.validate_ring()

    def test_summary_text(self, swim_paged):
        s = swim_paged.page_schedule.summary()
        assert "pages" in s and "deps" in s


class TestMirroring:
    def test_boundary_axis_quadrants(self):
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (2, 2))
        # snake over 2x2 tiles: 0->1 horizontal neighbours, 1->2 vertical
        assert boundary_axis(layout, 0, 1) == "horizontal"
        assert boundary_axis(layout, 1, 2) == "vertical"
        assert boundary_axis(layout, 2, 3) == "horizontal"

    def test_boundary_axis_rejects_non_adjacent(self):
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (2, 2))
        with pytest.raises(TransformError):
            boundary_axis(layout, 0, 2)

    def test_fold_orientations_compose(self):
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (2, 2))
        o = fold_orientations(layout)
        assert o[0] == Orientation.IDENTITY
        assert o[1] == Orientation.MIRROR_V  # horizontal boundary
        assert o[2] == Orientation.MIRROR_V.compose(Orientation.MIRROR_H)
        assert len(o) == 4

    def test_fold_aligns_boundary_pes(self):
        """The Fig. 6 property: a producer on one side of a page boundary
        and its consumer on the other side land on the SAME physical PE
        when both pages fold onto one tile."""
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (4, 1))  # column pages, vertical chain? no: 4x1 tiles side by side
        o = fold_orientations(layout)
        for n in range(1, layout.num_pages):
            # pick any boundary-crossing pair: pe in page n-1 adjacent to
            # pe' in page n
            for pe in layout.coords_of_page(n - 1):
                for nb in cgra.neighbors(pe):
                    if layout.page_of.get(nb) == n:
                        a = layout.place_local(0, layout.local_of[pe], o[n - 1])
                        b = layout.place_local(0, layout.local_of[nb], o[n])
                        assert a == b

    def test_fold_aligns_for_quadrants_too(self):
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (2, 2))
        o = fold_orientations(layout)
        for n in range(1, layout.num_pages):
            for pe in layout.coords_of_page(n - 1):
                for nb in cgra.neighbors(pe):
                    if layout.page_of.get(nb) == n:
                        a = layout.place_local(0, layout.local_of[pe], o[n - 1])
                        b = layout.place_local(0, layout.local_of[nb], o[n])
                        assert a == b
