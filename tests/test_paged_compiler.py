"""Paged compiler tests: the §VI-B constraints hold, page schedules are
ring-consistent, page need is minimised, and constrained mappings stay
functionally correct."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import paged_bus_key, register_usage_report
from repro.compiler.paged import map_dfg_paged
from repro.core.paging import PageLayout
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.util.errors import MappingError

FAST = ["mpeg", "sor", "laplace", "wavelet", "swim", "compress", "gsr"]


@pytest.fixture(scope="module")
def paged44():
    cgra = CGRA(4, 4, rf_depth=20)
    layout = PageLayout(cgra, (2, 2))
    out = {}
    for name in FAST:
        out[name] = map_dfg_paged(get_kernel(name).build(), cgra, layout)
    return cgra, layout, out


class TestConstraints:
    def test_ring_consistency_validated(self, paged44):
        _, _, mapped = paged44
        for name, pm in mapped.items():
            pm.page_schedule.validate_ring()

    def test_mapping_validates_with_hop_filter(self, paged44):
        cgra, _, mapped = paged44
        for name, pm in mapped.items():
            validate_mapping(pm.mapping, pm.layout)

    def test_all_deps_forward_in_ring(self, paged44):
        _, _, mapped = paged44
        for name, pm in mapped.items():
            for (src, dst, kind) in pm.page_schedule.deps:
                if kind == "ring":
                    assert dst[0] == pm.layout.ring_succ(src[0])
                else:
                    assert dst[0] == src[0]

    def test_register_usage_constraint(self, paged44):
        """Every transfer is an explicit per-cycle slot (depth-1 reads)."""
        _, _, mapped = paged44
        from repro.sim.lowering import ResolvedRead

        for name, pm in mapped.items():
            spec = get_kernel(name)
            _, arrays, _ = spec.fresh(seed=0, trip=5)
            mem = bind_memory(arrays)
            for f in lower_mapping(pm.mapping, mem, 5):
                for src in f.operands:
                    if isinstance(src, ResolvedRead):
                        assert f.cycle - src.cycle == 1, name

    def test_register_usage_report_counts(self, paged44):
        _, _, mapped = paged44
        rep = register_usage_report(mapped["sor"].mapping)
        assert rep["self_holds"] >= 0 and rep["move_hops"] >= 0

    def test_register_usage_report_starts_a_tapped_route_at_its_tap(self):
        """x on (0,0) at t=0 feeds y on (0,3) at t=4 through (0,1), (0,2),
        (0,2) — two moves and a self-hold — and z on (1,1) at t=3 through a
        tap of that route's first step, held one more cycle on (0,1): a
        self-hold of the tap, not a move from the producer."""
        from repro.arch.interconnect import Coord
        from repro.compiler.mapping import Mapping, Placement, Route, RouteStep
        from repro.dfg.builder import DFGBuilder

        b = DFGBuilder("fanout")
        x = b.load("in")
        b.store("out", b.op(Opcode.NEG, x))
        b.store("out2", b.abs(x))
        dfg = b.build()
        load, neg, absolute = (
            next(op.id for op in dfg.ops.values() if op.opcode.name == name)
            for name in ("LOAD", "NEG", "ABS")
        )
        stores = [op.id for op in dfg.ops.values() if op.opcode.name == "STORE"]
        to_neg, to_abs = (
            next(e.id for e in dfg.out_edges(load) if e.dst == dst) for dst in (neg, absolute)
        )
        first = RouteStep(Coord(0, 1), 1)
        mapping = Mapping(
            CGRA(4, 4),
            dfg,
            ii=8,
            placements={
                op: Placement(op, pe, t)
                for op, pe, t in [
                    (load, Coord(0, 0), 0),
                    (neg, Coord(0, 3), 4),
                    (absolute, Coord(1, 1), 3),
                    (stores[0], Coord(1, 3), 5),
                    (stores[1], Coord(2, 1), 4),
                ]
            },
            routes={
                to_neg: Route(
                    to_neg, (first, RouteStep(Coord(0, 2), 2), RouteStep(Coord(0, 2), 3))
                ),
                to_abs: Route(to_abs, (RouteStep(Coord(0, 1), 2),), tap=first),
            },
        )
        validate_mapping(mapping)
        assert register_usage_report(mapping) == {"self_holds": 2, "move_hops": 2}

class TestPageNeed:
    def test_recurrence_kernels_need_one_page(self, paged44):
        """§IV: recurrence-bound kernels cannot use a big array; the
        compiler packs them into a single page at unchanged II."""
        _, _, mapped = paged44
        for name in ("sor", "compress", "gsr"):
            assert mapped[name].pages_used == 1, name

    def test_pages_used_le_total(self, paged44):
        _, layout, mapped = paged44
        for name, pm in mapped.items():
            assert 1 <= pm.pages_used <= layout.num_pages


class TestRingFallback:
    @pytest.mark.parametrize("shared_probes", [False, True])
    def test_ring_fallback_stays_on_a_subchain(self, shared_probes):
        """On a sub-chain whose end pages touch, the ring the chain ladder
        falls back to is closed over those pages, not over the array —
        also when the chain and ring mappers share one probe memo."""
        from repro.compiler.ems import MapperConfig
        from repro.compiler.paged import _map_once
        from repro.compiler.search import ProbeMemo
        from repro.dfg.random_dfg import random_dfg
        from repro.util.errors import LadderExhausted

        cgra = CGRA(4, 4)
        sub = PageLayout(cgra, (2, 1)).subchain(2)
        assert sub.ring_wrap_adjacent
        dfg, config = random_dfg(12, n_ops=4), MapperConfig(max_ii=10)
        with pytest.raises(LadderExhausted):
            _map_once(dfg, cgra, sub, config)  # the chain cannot map it
        probes = ProbeMemo().for_dfg(dfg) if shared_probes else None
        pm = map_dfg_paged(dfg, cgra, sub, config=config, probes=probes)
        assert pm.wrap_used and pm.ii == 3
        assert pm.layout.num_pages == pm.full_layout.num_pages == 2
        pes = [p.pe for p in pm.mapping.placements.values()]
        pes += [s.pe for r in pm.mapping.routes.values() for s in r.steps]
        assert all(pe in sub.page_of for pe in pes)
        validate_mapping(pm.mapping, pm.layout)


class TestFunctional:
    @pytest.mark.parametrize("name", FAST)
    def test_paged_mapping_computes_correctly(self, paged44, name):
        cgra, _, mapped = paged44
        pm = mapped[name]
        spec = get_kernel(name)
        _, arrays, expected = spec.fresh(seed=9, trip=18)
        mem = bind_memory(arrays)
        simulate(
            lower_mapping(pm.mapping, mem, 18),
            cgra,
            mem,
            bus_key=paged_bus_key(pm.layout),
        )
        snap = mem.snapshot()
        for arr in expected:
            assert np.array_equal(snap[arr], expected[arr]), arr


class TestLayoutMismatch:
    def test_wrong_cgra_rejected(self):
        cgra_a = CGRA(4, 4)
        cgra_b = CGRA(4, 4)
        layout = PageLayout(cgra_a, (2, 2))
        with pytest.raises(MappingError):
            map_dfg_paged(get_kernel("sor").build(), cgra_b, layout)
