"""Tests for the DRESC-style simulated-annealing mapper (second baseline)
and its paging-constrained variant (§IX mapper independence)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.compiler.annealing import _energy, anneal_map
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import paged_bus_key
from repro.core.page_schedule import extract_page_schedule
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.compiler.paged import PagedMapping
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings
from repro.util.errors import MappingError


class TestAnnealBaseline:
    @pytest.mark.parametrize("name", ["sor", "laplace", "wavelet"])
    def test_maps_and_validates(self, name):
        cgra = CGRA(4, 4)
        m = anneal_map(get_kernel(name).build(), cgra, seed=1, max_ii=12)
        validate_mapping(m)

    def test_functionally_correct(self):
        cgra = CGRA(4, 4, rf_depth=8)
        spec = get_kernel("laplace")
        dfg, arrays, expected = spec.fresh(seed=5, trip=10)
        m = anneal_map(dfg, cgra, seed=3, max_ii=12)
        mem = bind_memory(arrays)
        simulate(lower_mapping(m, mem, 10), cgra, mem)
        assert np.array_equal(mem.read_array("out"), expected["out"])

    def test_deterministic_per_seed(self):
        cgra = CGRA(4, 4)
        dfg = get_kernel("wavelet").build()
        m1 = anneal_map(dfg, cgra, seed=7, max_ii=12)
        m2 = anneal_map(dfg, cgra, seed=7, max_ii=12)
        assert m1.placements == m2.placements

    def test_failure_raises(self):
        cgra = CGRA(2, 2)
        dfg = get_kernel("yuv2rgb").build()
        with pytest.raises(MappingError):
            anneal_map(dfg, cgra, seed=0, max_ii=2, iterations=200, restarts=1)

    def test_empty_rejected(self):
        from repro.dfg.graph import DFG

        with pytest.raises(MappingError):
            anneal_map(DFG(), CGRA(4, 4))


class TestMapperIndependence:
    """§IX: the transformation framework is independent of the mapper —
    an annealing-produced paged mapping shrinks and still computes."""

    def test_annealed_mapping_is_ring_consistent(self):
        cgra = CGRA(4, 4, rf_depth=24)
        layout = PageLayout(cgra, (2, 2))
        dfg = get_kernel("laplace").build()
        m = anneal_map(dfg, cgra, layout, seed=2, max_ii=12)
        validate_mapping(m, layout)
        extract_page_schedule(m, layout).validate_ring()

    def test_paged_energy_scores_the_layouts_bus_segments(self):
        """Two loads in one grid row but on different pages, in the same
        modulo slot: one bus each under the banked (page, local row) model
        the anneal routes with, so zero energy — and one shared, full bus
        (``mem_ports_per_row=1``) on the whole array."""
        from repro.arch.interconnect import Coord
        from repro.dfg.builder import DFGBuilder

        b = DFGBuilder("two_loads")
        b.store("out", b.add(b.load("a"), b.load("b")))
        dfg = b.build()
        load_a, load_b, add, store = sorted(
            (op for op in dfg.ops.values() if op.opcode.name != "CONST"),
            key=lambda op: op.id,
        )
        assert load_a.is_memory and load_b.is_memory and store.is_memory
        cgra = CGRA(4, 4)
        assert cgra.mem_ports_per_row == 1
        layout = PageLayout(cgra, (2, 2))
        pos = {
            load_a.id: (Coord(0, 1), 0),  # page 0, local row 0
            load_b.id: (Coord(0, 2), 0),  # page 1, local row 0
            add.id: (Coord(1, 2), 2),
            store.id: (Coord(1, 3), 3),
        }
        assert layout.page_of[Coord(0, 1)] != layout.page_of[Coord(0, 2)]
        assert _energy(dfg, cgra, 4, pos, layout) == 0.0
        assert _energy(dfg, cgra, 4, pos, None) == 25.0

    def test_annealed_mapping_shrinks_correctly(self):
        trip = 10
        cgra = CGRA(4, 4, rf_depth=24)
        layout = PageLayout(cgra, (2, 2))
        spec = get_kernel("laplace")
        dfg, arrays, expected = spec.fresh(seed=4, trip=trip)
        m = anneal_map(dfg, cgra, layout, seed=2, max_ii=12)
        schedule = extract_page_schedule(m, layout)
        pm = PagedMapping(m, layout, schedule)
        placement = PageMaster(
            layout.num_pages, m.ii, 1, wrap_used=pm.wrap_used
        ).place(batches=required_batches(m, trip))
        mem = bind_memory(arrays)
        firings = retarget_firings(pm, placement, [0], mem, trip, rf_limit=64)
        simulate(
            firings, cgra, mem, bus_key=paged_bus_key(layout), rf_depth=64
        )
        assert np.array_equal(mem.read_array("out"), expected["out"])
