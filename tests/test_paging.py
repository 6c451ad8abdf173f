"""Unit tests for CGRA paging: shapes, snake ring order, orientations."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.core.paging import Orientation, PageLayout, choose_page_shape
from repro.util.errors import ArchitectureError


class TestChooseShape:
    def test_square_preference(self):
        assert choose_page_shape(4, 4, 4) == (2, 2)

    def test_size_two(self):
        assert choose_page_shape(2, 4, 4) in ((2, 1), (1, 2))

    def test_size_eight_on_8x8(self):
        h, w = choose_page_shape(8, 8, 8)
        assert h * w == 8

    def test_must_fit_grid(self):
        with pytest.raises(ArchitectureError):
            choose_page_shape(32, 4, 4)  # no 32-PE tile in a 4x4
        with pytest.raises(ArchitectureError):
            choose_page_shape(10**9, 4, 4)  # only heights up to 4 are tried

    def test_rejects_bad_inputs(self):
        with pytest.raises(ArchitectureError):
            choose_page_shape(0, 4, 4)


class TestPageLayout:
    def test_fig4_quadrants(self, layout44_q):
        assert layout44_q.num_pages == 4
        assert layout44_q.page_size == 4
        assert not layout44_q.uncovered

    def test_fig4_columns(self, layout44_c):
        assert layout44_c.num_pages == 4
        # snake over a single tile row: plain left-to-right order
        assert [layout44_c.page_origin(n).col for n in range(4)] == [0, 1, 2, 3]

    def test_quadrant_wrap_is_adjacent(self, layout44_q):
        # 2x2 tiles in a 2x2 tile grid close the ring
        assert layout44_q.ring_wrap_adjacent

    def test_column_wrap_not_adjacent(self, layout44_c):
        assert not layout44_c.ring_wrap_adjacent

    def test_snake_consecutive_pages_adjacent(self):
        for rows, cols, shape in [(4, 4, (2, 2)), (8, 8, (2, 2)), (6, 6, (2, 2)), (8, 8, (2, 4))]:
            lay = PageLayout(CGRA(rows, cols), shape)
            for n in range(lay.num_pages - 1):
                assert lay._pages_adjacent(n, n + 1), (rows, cols, shape, n)

    def test_6x6_with_8pe_pages_partial_cover(self):
        lay = PageLayout(CGRA(6, 6), (2, 4))
        assert lay.num_pages == 3
        assert len(lay.uncovered) == 36 - 24

    def test_page_of_partitions_covered(self):
        lay = PageLayout(CGRA(6, 6), (2, 2))
        assert lay.num_pages == 9
        counts = {}
        for pe, n in lay.page_of.items():
            counts[n] = counts.get(n, 0) + 1
        assert all(c == 4 for c in counts.values())

    def test_local_coords_in_shape(self):
        lay = PageLayout(CGRA(4, 4), (4, 1))
        for pe, loc in lay.local_of.items():
            assert 0 <= loc.row < 4 and loc.col == 0

    def test_place_local_roundtrip_identity(self, layout44_q):
        for pe, n in layout44_q.page_of.items():
            loc = layout44_q.local_of[pe]
            assert layout44_q.place_local(n, loc) == pe

    def test_place_local_bad_inputs(self, layout44_q):
        with pytest.raises(ArchitectureError):
            layout44_q.place_local(0, Coord(5, 5))
        with pytest.raises(ArchitectureError):
            layout44_q.place_local(99, Coord(0, 0))

    def test_ring_hop_allowed_semantics(self, layout44_q):
        assert layout44_q.ring_hop_allowed(0, 0)  # same page
        assert layout44_q.ring_hop_allowed(0, 1)  # forward
        assert not layout44_q.ring_hop_allowed(1, 0)  # backward
        assert not layout44_q.ring_hop_allowed(0, 2)  # skip

    def test_ring_hop_wrap_gated_on_allow_wrap(self, layout44_q):
        """The wrap hop is off by default (chain topology) even when the
        tiling closes the loop physically; opting in enables it."""
        n = layout44_q.num_pages - 1
        assert not layout44_q.ring_hop_allowed(n, 0)
        ring = PageLayout(layout44_q.cgra, (2, 2), allow_wrap=True)
        assert ring.ring_hop_allowed(n, 0)

    def test_ring_hop_wrap_needs_physical_adjacency(self):
        cols = PageLayout(CGRA(4, 4), (4, 1), allow_wrap=True)
        assert not cols.ring_hop_allowed(cols.num_pages - 1, 0)

    def test_subchain(self, layout44_q):
        sub = layout44_q.subchain(2)
        assert sub.num_pages == 2
        assert len(sub.uncovered) == 8
        assert not sub.allow_wrap
        assert set(sub.page_of.values()) == {0, 1}
        with pytest.raises(ArchitectureError):
            layout44_q.subchain(0)
        with pytest.raises(ArchitectureError):
            layout44_q.subchain(9)

    def test_shape_too_large(self):
        with pytest.raises(ArchitectureError):
            PageLayout(CGRA(4, 4), (5, 1))

    def test_shape_invalid(self):
        with pytest.raises(ArchitectureError):
            PageLayout(CGRA(4, 4), (0, 2))

    def test_single_page_layout(self):
        lay = PageLayout(CGRA(2, 2), (2, 2))
        assert lay.num_pages == 1
        assert not lay.ring_wrap_adjacent


class TestOrientation:
    @pytest.mark.parametrize("o", list(Orientation))
    def test_involution(self, o):
        shape = (3, 2)
        for r in range(3):
            for c in range(2):
                p = Coord(r, c)
                assert o.apply(o.apply(p, shape), shape) == p

    def test_mirror_h(self):
        assert Orientation.MIRROR_H.apply(Coord(0, 1), (4, 2)) == Coord(3, 1)

    def test_mirror_v(self):
        assert Orientation.MIRROR_V.apply(Coord(2, 0), (4, 2)) == Coord(2, 1)

    def test_rot180_is_composition(self):
        shape = (4, 4)
        for r in range(4):
            for c in range(4):
                p = Coord(r, c)
                a = Orientation.MIRROR_H.apply(Orientation.MIRROR_V.apply(p, shape), shape)
                assert a == Orientation.ROT180.apply(p, shape)

    def test_compose_group_table(self):
        assert Orientation.MIRROR_H.compose(Orientation.MIRROR_V) == Orientation.ROT180
        assert Orientation.MIRROR_H.compose(Orientation.MIRROR_H) == Orientation.IDENTITY
        assert Orientation.IDENTITY.compose(Orientation.ROT180) == Orientation.ROT180

    @given(st.sampled_from(list(Orientation)), st.sampled_from(list(Orientation)))
    def test_compose_matches_apply(self, a, b):
        shape = (4, 4)
        comp = a.compose(b)
        for r in range(4):
            for c in range(4):
                p = Coord(r, c)
                assert comp.apply(p, shape) == a.apply(b.apply(p, shape), shape)

    @given(st.sampled_from(list(Orientation)))
    def test_orientation_is_isometry(self, o):
        """Orientations preserve adjacency within the page."""
        shape = (4, 2)
        pts = [Coord(r, c) for r in range(4) for c in range(2)]
        for p in pts:
            for q in pts:
                d0 = p.manhattan(q)
                d1 = o.apply(p, shape).manhattan(o.apply(q, shape))
                assert d0 == d1
