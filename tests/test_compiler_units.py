"""Unit tests for compiler building blocks: mapping model, reservation
table, router."""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.arch.capability import CapabilityMap, OpClass
from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.arch.presets import preset
from repro.compiler.check import validate_mapping
from repro.compiler.mapping import (
    Mapping,
    Placement,
    materialized_edges,
    materialized_ops,
)
from repro.compiler.mrt import ReservationTable
from repro.compiler.routing import (
    RoutingContext,
    _steps_of,
    commit_route,
    find_route_ids,
    release_route,
)
from repro.core.paging import PageLayout
from repro.dfg.builder import DFGBuilder
from repro.kernels import get_kernel
from repro.pipeline.artifact import CompiledKernel
from repro.pipeline.store import ArtifactStore
from repro.util.errors import (
    ArchitectureError,
    CapabilityViolation,
    ConstraintViolation,
    MappingError,
)


def tiny_dfg():
    b = DFGBuilder("tiny")
    x = b.load("in")
    y = b.add(x, b.const(1))
    b.store("out", y)
    return b.build()


class TestMaterialization:
    def test_consts_not_materialized(self):
        g = tiny_dfg()
        mat = materialized_ops(g)
        assert len(mat) == g.num_ops - 1  # one const dropped

    def test_const_edges_not_materialized(self):
        g = tiny_dfg()
        edges = materialized_edges(g)
        assert len(edges) == g.num_edges - 1


def _id(cgra, row, col):
    return cgra.grid_index.id_of[Coord(row, col)]


class TestReservationTable:
    def test_claim_release_cycle(self, cgra44):
        t = ReservationTable(cgra44, ii=2)
        pe = _id(cgra44, 0, 0)
        t.claim_id(pe, 0)
        assert not t.slot_free_id(pe, 2)  # modulo II
        t.release_id(pe, 0)
        assert t.slot_free_id(pe, 2)

    def test_double_claim_rejected(self, cgra44):
        t = ReservationTable(cgra44, ii=2)
        t.claim_id(_id(cgra44, 1, 1), 3)
        with pytest.raises(MappingError):
            t.claim_id(_id(cgra44, 1, 1), 5)  # same modulo slot

    def test_bus_capacity_default_per_row(self, cgra44):
        t = ReservationTable(cgra44, ii=1)
        t.claim_id(_id(cgra44, 0, 0), 0, memory=True)
        assert not t.bus_free_id(_id(cgra44, 0, 3), 0)  # same row
        assert t.bus_free_id(_id(cgra44, 1, 0), 0)  # other row
        with pytest.raises(MappingError):
            t.claim_id(_id(cgra44, 0, 1), 0, memory=True)

    def test_bus_release(self, cgra44):
        t = ReservationTable(cgra44, ii=1)
        t.claim_id(_id(cgra44, 0, 0), 0, memory=True)
        t.release_id(_id(cgra44, 0, 0), 0, memory=True)
        assert t.bus_free_id(_id(cgra44, 0, 1), 0)

    def test_custom_bus_key(self, cgra44):
        """A layout keys buses by (page, local row): one grid row holds a
        bus per page it crosses, and an uncovered PE has none."""
        from repro.core.paging import PageLayout
        from repro.util.errors import ConstraintViolation

        t = ReservationTable(cgra44, ii=1, layout=PageLayout(cgra44, (2, 2)))
        t.claim_id(_id(cgra44, 0, 0), 0, memory=True)
        assert not t.bus_free_id(_id(cgra44, 0, 1), 0)  # same page and row
        assert t.bus_free_id(_id(cgra44, 0, 2), 0)  # same row, next page
        assert t.bus_free_id(_id(cgra44, 1, 0), 0)  # same page, next row
        cgra = CGRA(3, 3)
        t = ReservationTable(cgra, ii=1, layout=PageLayout(cgra, (2, 2)))
        with pytest.raises(ConstraintViolation, match="uncovered"):
            t.claim_id(_id(cgra, 2, 2), 0, memory=True)

    def test_release_unclaimed_rejected(self, cgra44):
        t = ReservationTable(cgra44, ii=2)
        with pytest.raises(MappingError):
            t.release_id(_id(cgra44, 0, 0), 0)

    def test_bad_ii(self, cgra44):
        with pytest.raises(MappingError):
            ReservationTable(cgra44, ii=0)


class TestRouting:
    def test_direct_link(self, cgra44):
        mrt = ReservationTable(cgra44, ii=4)
        ctx = RoutingContext(cgra44)
        steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 0, 1), 1)
        assert steps == ()

    def test_direct_link_requires_adjacency(self, cgra44):
        mrt = ReservationTable(cgra44, ii=4)
        ctx = RoutingContext(cgra44)
        src, dst = _id(cgra44, 0, 0), _id(cgra44, 3, 3)
        assert find_route_ids(ctx, mrt, src, 0, dst, 1) is None

    def test_non_causal_rejected(self, cgra44):
        mrt = ReservationTable(cgra44, ii=4)
        ctx = RoutingContext(cgra44)
        src, dst = _id(cgra44, 0, 0), _id(cgra44, 0, 1)
        assert find_route_ids(ctx, mrt, src, 5, dst, 5) is None

    def test_multi_hop_route_times(self, cgra44):
        mrt = ReservationTable(cgra44, ii=8)
        ctx = RoutingContext(cgra44)
        steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 3, 3), 6)
        assert steps is not None and len(steps) == 5
        assert [s.time for s in steps] == [1, 2, 3, 4, 5]
        # chain is physically contiguous
        holder = Coord(0, 0)
        for s in steps:
            assert cgra44.adjacent_or_same(s.pe, holder)
            holder = s.pe
        assert cgra44.adjacent_or_same(Coord(3, 3), holder)

    def test_route_respects_occupancy(self, cgra44):
        mrt = ReservationTable(cgra44, ii=2)
        # block the entire escape neighbourhood of (0,0) at time 1 (mod 0 &
        # 1 as needed)
        for pe in [Coord(0, 0), Coord(0, 1), Coord(1, 0)]:
            mrt.claim_id(_id(cgra44, *pe), 1)
        ctx = RoutingContext(cgra44)
        steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 0, 1), 4)
        assert steps is None

    def test_route_longer_than_ii_self_collision_avoided(self, cgra44):
        # gap > II forces the DFS path not to reuse its own modulo slots
        mrt = ReservationTable(cgra44, ii=2)
        ctx = RoutingContext(cgra44)
        steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 0, 0), 6)
        assert steps is not None
        used = {(s.pe, s.time % 2) for s in steps}
        assert len(used) == len(steps)

    def test_hop_filter_blocks(self, cgra44):
        """Under a layout a value never moves backwards along the chain:
        page 1 cannot reach page 0 however long the route."""
        layout = PageLayout(cgra44, (2, 2))
        ctx = RoutingContext(cgra44, layout)
        whole = RoutingContext(cgra44)
        mrt = ReservationTable(cgra44, ii=4, layout=layout)
        c0, c1, c2, c3 = (_id(cgra44, 0, col) for col in range(4))
        assert find_route_ids(ctx, mrt, c0, 0, c3, 4)
        # no layout: the backward hop is a plain direct link
        assert find_route_ids(whole, mrt, c2, 0, c1, 1) == ()
        assert find_route_ids(ctx, mrt, c2, 0, c1, 1) is None
        assert find_route_ids(ctx, mrt, c3, 0, c0, 4) is None

    def test_commit_and_release(self, cgra44):
        mrt = ReservationTable(cgra44, ii=8)
        ctx = RoutingContext(cgra44)
        steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 2, 0), 4)
        commit_route(mrt, steps)
        id_of = cgra44.grid_index.id_of
        for s in steps:
            assert not mrt.slot_free_id(id_of[s.pe], s.time)
        release_route(mrt, steps)
        for s in steps:
            assert mrt.slot_free_id(id_of[s.pe], s.time)


class TestMappingModel:
    def test_schedule_length_and_stages(self, cgra44):
        g = tiny_dfg()
        m = Mapping(cgra44, g, ii=2)
        mat = materialized_ops(g)
        for i, op_id in enumerate(mat):
            m.placements[op_id] = Placement(op_id, Coord(0, i), i)
        assert m.schedule_length == len(mat)
        assert m.stage_count == 2  # ceil(3 / 2)

    def test_placement_missing_raises(self, cgra44):
        m = Mapping(cgra44, tiny_dfg(), ii=1)
        with pytest.raises(MappingError):
            m.placement(0)

    def test_invalid_ii(self, cgra44):
        with pytest.raises(MappingError):
            Mapping(cgra44, tiny_dfg(), ii=0)

    def test_negative_time_rejected(self):
        with pytest.raises(MappingError):
            Placement(0, Coord(0, 0), -1)


REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"


@pytest.fixture(scope="module")
def committed44():
    """Every mappable committed 4x4 artifact, materialized, smallest first."""
    if not REPO_STORE.is_dir():
        pytest.skip("committed artifact store not present")
    artifacts = []
    for path, is_artifact in ArtifactStore(REPO_STORE).walk():
        if is_artifact:
            a = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
            if not a.unmappable and (a.rows, a.cols) == (4, 4):
                artifacts.append(a)
    artifacts.sort(key=lambda a: (len(a.placements), a.key.digest))
    return [a.materialize(get_kernel(a.kernel).build()) for a in artifacts]


def _rebuilt(paged, placements=None, cgra=None):
    """*paged*'s mapping and layout, with some placements replaced and/or
    on another fabric of the same grid."""
    m, layout = paged.mapping, paged.layout
    if cgra is not None:
        full = PageLayout(cgra, layout.shape, allow_wrap=layout.allow_wrap)
        if layout.num_pages < full.num_pages:
            full = full.subchain(layout.num_pages)
        layout = full
    placements = {**m.placements, **(placements or {})}
    return Mapping(cgra or m.cgra, m.dfg, m.ii, placements, m.routes), layout


def _taken(mapping):
    """Every (PE, modulo slot) the mapping's ops and route steps book."""
    ii = mapping.ii
    out = {(p.pe, p.time % ii) for p in mapping.placements.values()}
    out |= {(s.pe, s.time % ii) for r in mapping.routes.values() for s in r.steps}
    return out


class TestValidatorRejections:
    """``validate_mapping``'s rejection taxonomy, one mutation of a
    committed mapping per failure kind: the auditor's MAP-LEGAL /
    MAP-RING / MAP-CAP split reads these exception classes."""

    def test_double_booked_slot_is_mapping_error(self, committed44):
        paged = committed44[0]
        a, b = list(paged.mapping.placements.values())[:2]
        moved = {a.op_id: Placement(a.op_id, b.pe, b.time)}
        mapping, layout = _rebuilt(paged, moved)
        with pytest.raises(MappingError) as exc:
            validate_mapping(mapping, layout)
        assert exc.type is MappingError

    def test_bus_segment_over_ports_is_mapping_error(self, committed44):
        for paged in committed44:
            mapping, layout = paged.mapping, paged.layout
            taken = _taken(mapping)
            mem = [
                p for p in mapping.placements.values()
                if mapping.dfg.ops[p.op_id].is_memory
            ]
            for a in mem:
                for b in mem:
                    if a is b:
                        continue
                    # a free PE on b's bus segment, in b's modulo slot
                    page, row = layout.page_of[b.pe], layout.local_of[b.pe].row
                    for pe in layout.coords_of_page(page):
                        if (
                            layout.local_of[pe].row == row
                            and pe != b.pe
                            and (pe, b.time % mapping.ii) not in taken
                        ):
                            moved = {a.op_id: Placement(a.op_id, pe, b.time)}
                            bad, layout = _rebuilt(paged, moved)
                            assert mapping.cgra.mem_ports_per_row == 1
                            with pytest.raises(
                                MappingError, match="bus segment"
                            ) as exc:
                                validate_mapping(bad, layout)
                            assert exc.type is MappingError
                            return
        pytest.fail("no committed mapping has a free PE on a memory bus segment")

    def test_uncovered_pe_is_constraint_violation(self, committed44):
        paged = next(
            p for p in committed44 if p.pages_used < p.full_layout.num_pages
        )
        pe = next(
            c for c in paged.mapping.cgra.coords() if c not in paged.layout.page_of
        )
        p = next(iter(paged.mapping.placements.values()))
        moved = {p.op_id: Placement(p.op_id, pe, p.time)}
        mapping, layout = _rebuilt(paged, moved)
        with pytest.raises(ConstraintViolation) as exc:
            validate_mapping(mapping, layout)
        assert exc.type is ConstraintViolation

    def test_memory_op_on_non_mem_pe_is_capability_violation(self, committed44):
        memcols = preset("4x4-memcols")
        mem_mask = memcols.class_mask(OpClass.MEM)
        id_of = memcols.grid_index.id_of
        paged = next(
            p for p in committed44
            if any(
                p.mapping.dfg.ops[q.op_id].is_memory and not mem_mask[id_of[q.pe]]
                for q in p.mapping.placements.values()
            )
        )
        mapping, layout = _rebuilt(paged, cgra=memcols)
        with pytest.raises(CapabilityViolation, match="mem"):
            validate_mapping(mapping, layout)

    def test_route_step_on_non_route_pe_is_capability_violation(self, committed44):
        paged = next(
            p for p in committed44 if any(r.steps for r in p.mapping.routes.values())
        )
        step = next(s for r in paged.mapping.routes.values() for s in r.steps)
        cgra = paged.mapping.cgra
        no_route = cgra.grid_index.id_of[step.pe]
        routers = tuple(i for i in range(cgra.num_pes) if i != no_route)
        cap = CapabilityMap(cgra.rows, cgra.cols, ((OpClass.ROUTE.value, routers),))
        fabric = CGRA(cgra.rows, cgra.cols, rf_depth=cgra.rf_depth, capability=cap)
        mapping, layout = _rebuilt(paged, cgra=fabric)
        with pytest.raises(CapabilityViolation, match="route"):
            validate_mapping(mapping, layout)


class TestReservationCounters:
    """The flat table's occupancy bitmap, per-slot free-PE bitmasks and
    bus use-counts must move in lockstep at every
    point of an interleaved claim/release history (the routers'
    reachability filter ANDs with the bitmasks, the DFS seeds its visited
    set from the bitmap)."""

    def _assert_counters_agree(self, t, cgra, held):
        n = cgra.num_pes
        taken = {(pe, time % t.ii) for pe, time, _memory in held}
        for m in range(t.ii):
            free = {p for p in range(n) if t.slot_free_id(p, m)}
            assert free == {p for p in range(n) if (p, m) not in taken}, m
            assert free == {p for p in range(n) if not t.occupied[m * n + p]}, m
            assert t.free_mask[m] == sum(1 << p for p in free), f"slot {m}"
        rows = [pe.row for pe in cgra.grid_index.coords]
        used = Counter((rows[q], time % t.ii) for q, time, memory in held if memory)
        for p in range(n):
            for m in range(t.ii):
                assert t.bus_free_id(p, m) == (used[rows[p], m] < cgra.mem_ports_per_row)

    def test_interleaved_claim_release_with_bus(self, cgra44):
        import random

        rng = random.Random(7)
        t = ReservationTable(cgra44, ii=3)
        held: list[tuple[int, int, bool]] = []
        for step in range(300):
            if held and rng.random() < 0.45:
                pe, time, memory = held.pop(rng.randrange(len(held)))
                t.release_id(pe, time, memory=memory)
            else:
                pe = rng.randrange(cgra44.num_pes)
                time = rng.randrange(0, 12)
                if not t.slot_free_id(pe, time):
                    continue
                memory = rng.random() < 0.4 and t.bus_free_id(pe, time)
                t.claim_id(pe, time, memory=memory)
                held.append((pe, time, memory))
            if step % 25 == 0:
                self._assert_counters_agree(t, cgra44, held)
        self._assert_counters_agree(t, cgra44, held)
        for pe, time, memory in held:
            t.release_id(pe, time, memory=memory)
        # fully drained: every counter back to its initial state
        self._assert_counters_agree(t, cgra44, [])
        assert not any(t.occupied)
        assert t.free_mask == [(1 << cgra44.num_pes) - 1] * t.ii


class TestRoutingDeterminism:
    """Route choice must be a pure function of (fabric, reservations,
    query) — never of set/dict iteration order.  The goal tables are
    explicitly ordered (goal PEs sorted by id, memoized hint), so the same
    query on equal reservation state yields byte-identical steps across
    repeated calls, fresh contexts, and warm memo tables."""

    def _occupied_mrt(self, cgra, ii):
        mrt = ReservationTable(cgra, ii=ii)
        # stake out an asymmetric obstacle field so tie-breaks matter
        for pe, time in [
            (Coord(0, 1), 1),
            (Coord(1, 1), 2),
            (Coord(2, 1), 0),
            (Coord(1, 2), 1),
            (Coord(2, 3), 2),
        ]:
            mrt.claim_id(cgra.grid_index.id_of[pe], time)
        return mrt

    def test_bfs_route_stable_across_fresh_contexts(self, cgra44):
        ref = None
        for _ in range(5):
            mrt = self._occupied_mrt(cgra44, ii=8)
            ctx = RoutingContext(cgra44)
            steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 3, 3), 7)
            assert steps is not None
            if ref is None:
                ref = steps
            assert steps == ref

    def test_dfs_route_stable_across_fresh_contexts(self, cgra44):
        ref = None
        for _ in range(5):
            mrt = self._occupied_mrt(cgra44, ii=2)
            ctx = RoutingContext(cgra44)
            steps = find_route_ids(ctx, mrt, _id(cgra44, 0, 0), 0, _id(cgra44, 3, 3), 8)
            assert steps is not None
            if ref is None:
                ref = steps
            assert steps == ref

    def test_warm_memo_matches_cold_context(self, cgra44):
        ctx = RoutingContext(cgra44)
        query = (_id(cgra44, 0, 0), 0, _id(cgra44, 3, 3), 7)
        cold = find_route_ids(
            RoutingContext(cgra44), self._occupied_mrt(cgra44, 8), *query
        )
        warm1 = find_route_ids(ctx, self._occupied_mrt(cgra44, 8), *query)
        warm2 = find_route_ids(ctx, self._occupied_mrt(cgra44, 8), *query)
        assert cold == warm1 == warm2

    def test_goal_table_explicitly_ordered(self, cgra44):
        ctx = RoutingContext(cgra44)
        gi = cgra44.grid_index
        for dst_id in range(gi.num_pes):
            goal, mask, min_dist, hint, bits = ctx.goal_table(dst_id)
            assert list(goal) == sorted(goal)
            assert bits == sum(1 << g for g in goal)
            assert all(mask[g] for g in goal)
            assert sum(mask) == len(goal)
            # pruning bound is tight at the goals themselves
            assert all(min_dist[g] == 0 for g in goal)
            assert hint is not None and mask[hint]


def _reference_bfs(ctx, mrt, src_id, t_src_eff, dst_id, hops, pruned):
    """The layered BFS (dict of first-discoverer parents per layer, children
    in hint order, Manhattan pruning) that the corridor walk of
    ``routing._walk_route`` replaced: the reference for its steps.  Every
    free node the Manhattan bound cuts is appended to *pruned*."""
    _, goal_mask, min_dist, hint, _ = ctx.goal_table(dst_id)
    mt = ctx.moves_table(hint)
    layer, parents = {src_id: None}, []
    for j in range(1, hops + 1):
        nxt = {}
        for p in layer:
            for q in mt[p]:
                if q in nxt or not mrt.slot_free_id(q, t_src_eff + j):
                    continue
                if min_dist[q] > hops - j:
                    pruned.append(q)
                    continue
                nxt[q] = p
        if not nxt:
            return None
        parents.append(nxt)
        layer = nxt
    path = [next((p for p in layer if goal_mask[p]), None)]
    if path[0] is None:
        return None
    for j in range(hops - 1, 0, -1):
        path.append(parents[j][path[-1]])
    return _steps_of(ctx, path[::-1], t_src_eff)


class TestReachabilityFilter:
    """``RoutingContext.reachable`` must be a *necessary* condition for a
    route (so skipping the search on ``False`` never changes an answer).
    For a route shorter than the II it is exact and equal to the plain
    set-based frontier it abbreviates; for a longer one it implies that
    frontier and is implied by the unlimited-budget DFS.  The short-route
    search must return, step for step, what the layered BFS it replaced
    returns.  All on random occupancy, with and without a ring hop filter
    and a ROUTE capability mask."""

    @staticmethod
    def _fabric(name, route_mask, rng):
        from repro.arch.capability import CapabilityMap, OpClass
        from repro.arch.presets import preset

        cgra = preset(name)
        if not route_mask:
            return cgra
        classes = () if cgra.capability is None else cgra.capability.classes
        ids = [p for p in range(cgra.num_pes) if rng.random() < 0.8]
        cap = CapabilityMap(
            cgra.rows, cgra.cols, (*classes, (OpClass.ROUTE.value, tuple(ids)))
        )
        return CGRA(cgra.rows, cgra.cols, rf_depth=cgra.rf_depth, capability=cap)

    @classmethod
    def _context(cls, name, ring, route_mask, rng):
        from repro.compiler.routing import RoutingContext
        from repro.core.paging import PageLayout

        cgra = cls._fabric(name, route_mask, rng)
        layout = PageLayout(cgra, (2, 2)) if ring else None
        return cgra, RoutingContext(cgra, layout)

    @staticmethod
    def _random_mrt(cgra, ii, rng):
        mrt = ReservationTable(cgra, ii)
        density = rng.uniform(0.1, 0.95)
        for m in range(ii):
            for p in range(cgra.num_pes):
                if rng.random() < density:
                    mrt.claim_id(p, m)
        return mrt

    @staticmethod
    def _set_frontier(ctx, mrt, src_id, t_src, hops):
        layer = {src_id}
        for t in range(t_src + 1, t_src + hops + 1):
            layer = {
                q
                for p in layer
                for q in ctx.allowed_moves[p]
                if mrt.slot_free_id(q, t)
            }
        return layer

    @pytest.mark.parametrize("name", ["4x4", "8x8-memcols"])
    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("route_mask", [False, True])
    def test_filter_never_changes_an_answer(self, name, ring, route_mask):
        import random

        from repro.compiler.routing import _dfs_route, find_route_ids
        from repro.util.spans import MapperCounters

        rng = random.Random(f"{name}/{ring}/{route_mask}")
        cgra, ctx = self._context(name, ring, route_mask, rng)
        n = cgra.num_pes
        # non-vacuity, per kind of refutation: no walk at all / a walk but
        # too few corridor PEs for some modulo slot's steps
        no_walk = no_room = 0
        for _ in range(250):
            ii = rng.randrange(1, 6)
            mrt = self._random_mrt(cgra, ii, rng)
            src, dst = rng.randrange(n), rng.randrange(n)
            t_src = rng.randrange(0, 8)
            t_dst = t_src + rng.randrange(0, ii + 8)
            hops = t_dst - t_src - 1
            goal, goal_mask, min_dist, hint, _ = ctx.goal_table(dst)
            can = ctx.reachable(mrt, {}, src, t_src, dst, t_dst)
            walk = hops >= 0 and bool(
                self._set_frontier(ctx, mrt, src, t_src, hops) & set(goal)
            )
            found = find_route_ids(
                ctx, mrt, src, t_src, dst, t_dst, max_expansions=10**7
            )
            if hops < ii:
                # direct link or corridor walk: the frontier, and exact
                assert can == walk == (found is not None)
                continue
            assert walk or not can
            # the unfiltered search is the reference for long routes
            reference = _dfs_route(
                ctx, mrt, src, t_src, goal_mask, min_dist, hint, hops,
                10**7, MapperCounters(),
            )
            assert found == reference
            if not can:
                assert reference is None
                no_walk += not walk
                no_room += walk
        # the properties were exercised, not vacuous
        assert no_walk > 0 and no_room > 0

    @pytest.mark.parametrize("name", ["4x4", "8x8-memcols"])
    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("route_mask", [False, True])
    def test_short_route_is_the_layered_bfs_route(self, name, ring, route_mask):
        """Same *steps*, not merely the same verdict, ``None`` included."""
        import random

        from repro.compiler.routing import find_route_ids

        rng = random.Random(f"walk/{name}/{ring}/{route_mask}")
        cgra, ctx = self._context(name, ring, route_mask, rng)
        n = cgra.num_pes
        routed = unrouted = 0
        pruned: list[int] = []
        for _ in range(250):
            ii = rng.randrange(2, 9)
            mrt = self._random_mrt(cgra, ii, rng)
            for _ in range(8):
                src, dst = rng.randrange(n), rng.randrange(n)
                t_src = rng.randrange(0, 8)
                hops = rng.randrange(1, ii)
                steps = find_route_ids(ctx, mrt, src, t_src, dst, t_src + hops + 1)
                assert steps == _reference_bfs(
                    ctx, mrt, src, t_src, dst, hops, pruned
                )
                routed += steps is not None
                unrouted += steps is None
        # both answers occurred, and the reference's Manhattan bound (over
        # the ROUTE-capable goals only, on the masked fabrics) did cut nodes
        assert routed > 0 and unrouted > 0 and pruned

    @pytest.mark.parametrize("name", ["4x4", "8x8-memcols"])
    @pytest.mark.parametrize("ring", [False, True])
    @pytest.mark.parametrize("route_mask", [False, True])
    def test_candidate_mask_is_the_frontier_half(self, name, ring, route_mask):
        """``EMSMapper._candidate_mask`` against the per-candidate predicate
        of ``_commit_candidate``'s pre-claim check, for random anchored
        pred / succ edge sets and every ``(pe, t)``: a clear bit means the
        predicate is false, a set bit on an exact cycle means it is true,
        and only an inexact cycle leaves set bits undecided."""
        import random

        from repro.compiler.ems import EMSMapper, _Attempt
        from repro.util.spans import MapperCounters

        rng = random.Random(f"mask/{name}/{ring}/{route_mask}")
        cgra, ctx = self._context(name, ring, route_mask, rng)
        mapper = EMSMapper(cgra, ctx.layout)
        # reading parks nothing, so only the move tables carry the ROUTE mask
        assert (ctx.read_masks != ctx.move_masks) == route_mask
        n = cgra.num_pes
        refuted = passed = undecided = undecided_false = 0
        for _ in range(120):
            ii = rng.randrange(1, 6)
            mrt = self._random_mrt(cgra, ii, rng)
            st = _Attempt(mrt, MapperCounters())
            # per pred edge the holders of its value; per succ edge the
            # placed consumer and the edge's distance * II
            pred_holders = [
                [
                    (rng.randrange(n), rng.randrange(0, 6))
                    for _ in range(rng.randrange(1, 4))
                ]
                for _ in range(rng.randrange(0, 3))
            ]
            succ_anchors = [
                (rng.randrange(n), rng.randrange(4, 14), rng.randrange(0, 2) * ii)
                for _ in range(rng.randrange(0 if pred_holders else 1, 3))
            ]
            reference: dict = {}  # the predicate's own sweeps, not st.fronts
            for t in range(0, 13):
                mask, exact = mapper._candidate_mask(
                    st, t, pred_holders, succ_anchors
                )
                for pe in range(n):
                    predicate = all(
                        any(
                            ctx.reachable(mrt, reference, s_id, s_t, pe, t)
                            for s_id, s_t in holders
                        )
                        for holders in pred_holders
                    ) and all(
                        ctx.reachable(mrt, reference, pe, t - shift, dst_id, dst_t)
                        for dst_id, dst_t, shift in succ_anchors
                    )
                    if not mask >> pe & 1:
                        assert not predicate
                        refuted += 1
                    elif exact:
                        assert predicate
                        passed += 1
                    else:
                        undecided += 1
                        undecided_false += not predicate
        # every outcome occurred, and the inexact residue is real: the
        # pigeonhole does refute candidates the frontier lets through
        assert refuted > 0 and passed > 0 and undecided > 0
        assert undecided_false > 0

    def test_shared_frontiers_match_fresh_ones(self, cgra44):
        """One ``fronts`` dict shared across queries of different lengths
        (the placer's use) answers exactly like a fresh dict per query."""
        import random

        rng = random.Random(11)
        ctx = RoutingContext(cgra44)
        mrt = ReservationTable(cgra44, 3)
        for m in range(3):
            for p in range(16):
                if rng.random() < 0.6:
                    mrt.claim_id(p, m)
        shared: dict = {}
        for _ in range(400):
            q = (rng.randrange(4), rng.randrange(3), rng.randrange(16),
                 rng.randrange(0, 12))
            assert ctx.reachable(mrt, shared, *q) == ctx.reachable(mrt, {}, *q)

    @pytest.mark.parametrize(
        "name", ["4x4", "6x6", "8x8", "4x4-memcols", "8x8-memcols"]
    )
    @pytest.mark.parametrize("route_mask", [False, True])
    def test_shift_mask_hop_is_the_set_bit_hop(self, name, route_mask):
        """``routing._hop`` on the move, reverse and read masks equals the
        per-PE bitmask loop it replaced, on every page size's layout: the
        whole array, the chain, its ring and each of its sub-chains;
        random sets, the empty set and every PE."""
        import random

        from repro.compiler.routing import _hop
        from repro.core.paging import choose_page_shape

        rng = random.Random(f"hop/{name}/{route_mask}")
        cgra, whole = self._context(name, False, route_mask, rng)
        n = cgra.num_pes
        contexts = [whole]
        for page_size in range(1, n + 1):
            try:
                shape = choose_page_shape(page_size, cgra.rows, cgra.cols)
            except ArchitectureError:
                continue
            chain = PageLayout(cgra, shape)
            contexts += [
                RoutingContext(cgra, layout)
                for layout in (
                    chain, chain.ring(),
                    *map(chain.subchain, range(1, chain.num_pages + 1)),
                )
            ]
        sets = [0, (1 << n) - 1, *(rng.getrandbits(n) for _ in range(6))]
        for ctx in contexts:
            moves = [(p, q) for p, qs in enumerate(ctx.allowed_moves) for q in qs]
            reads = [(p, c) for c, ps in enumerate(ctx.readable_from) for p in ps]
            for masks, steps in (
                (ctx.move_masks, moves),
                (ctx.rev_masks, [(q, p) for p, q in moves]),
                (ctx.read_masks, reads),
            ):
                table = [0] * n  # the replaced form: bit q of table[p] == p -> q
                for p, q in steps:
                    table[p] |= 1 << q
                for bits in sets:
                    assert _hop(bits, masks) == _set_bit_hop(bits, table)
        # a ring/ROUTE filter did remove moves (not only the mesh edge)
        assert any(c.move_masks != whole.move_masks for c in contexts[1:])

    def test_shift_masks_refuse_a_move_that_is_not_a_mesh_hop(self, cgra44):
        """A step with no shift raises instead of vanishing from the masks:
        two columns over, across a row end (ids 3 -> 4: a +1 shift, not a
        hop), diagonal."""
        from repro.compiler.routing import _shift_masks

        assert _shift_masks(cgra44, [(5, 5), (5, 1), (5, 9), (5, 4), (5, 6)]) == (
            4, 1 << 5, 1 << 1, 1 << 9, 1 << 4, 1 << 6,
        )
        for step in ((0, 2), (3, 4), (4, 3), (0, 5), (0, 8)):
            with pytest.raises(ArchitectureError, match="not a mesh hop"):
                _shift_masks(cgra44, [(5, 6), step])


def _set_bit_hop(bits: int, step_bits: list[int]) -> int:
    """The PEs one step of *step_bits* away from some PE of *bits*, one
    set bit at a time: the form ``routing._hop`` had before its shift
    masks, kept as its reference."""
    out = 0
    while bits:
        low = bits & -bits
        out |= step_bits[low.bit_length() - 1]
        bits ^= low
    return out


def _per_cycle_floors(t_lo, t_hi, pred_holders, succ_anchors) -> list[float]:
    """``routing.cost_floors`` as it was written before its ascending
    sweep: every cycle rescans every holder.  Kept as its reference."""
    ends: dict[int, int] = {}
    for _, dst_t, shift in succ_anchors:
        ends[shift] = max(ends.get(shift, 0), dst_t + shift)
    floors = []
    for t in range(t_lo, t_hi + 1):
        slots = 0
        for holders in pred_holders:
            slots += t - 1 - max((h for _, h in holders if h < t), default=t - 1)
        for end in ends.values():
            slots += end - t - 1
        floors.append(slots + 0.25 * (t - t_lo))
    for i in range(len(floors) - 2, -1, -1):
        floors[i] = min(floors[i], floors[i + 1])
    return floors


def test_cost_floors_equal_the_per_cycle_formula():
    """Float for float, on seeded draws: no values or no consumers, a value
    with no holder, holders sharing a time, holders at or after ``t_hi``."""
    import random

    from repro.compiler.routing import cost_floors

    rng = random.Random("floors")
    seen = Counter()
    for _ in range(2000):
        t_lo = rng.randrange(0, 12)
        t_hi = t_lo + rng.randrange(0, 20)
        pred_holders = [
            [
                (rng.randrange(16), rng.choice((t_lo, t_hi, rng.randrange(0, t_hi + 6))))
                for _ in range(rng.randrange(0, 6))
            ]
            for _ in range(rng.randrange(0, 4))
        ]
        succ_anchors = [
            (rng.randrange(16), rng.randrange(t_lo, t_hi + 10), rng.randrange(0, 3) * 4)
            for _ in range(rng.randrange(0, 4))
        ]
        floors = cost_floors(t_lo, t_hi, pred_holders, succ_anchors)
        assert floors == _per_cycle_floors(t_lo, t_hi, pred_holders, succ_anchors)
        times = [h for holders in pred_holders for _, h in holders]
        seen["no values"] += not pred_holders
        seen["no consumers"] += not succ_anchors
        seen["holderless value"] += [] in pred_holders
        seen["shared time"] += len(times) > len(set(times))
        seen["late holder"] += any(h >= t_hi for h in times)
    assert len(seen) == 5 and min(seen.values()) > 50, seen


#: Parent-commit (0de780d, before the candidate mask) search trajectory of
#: cold ``compile_job_stats`` at mapper seed 0: (backend, kernel, page size)
#: -> (ii_base, ii_paged, placement_probes, trial_commits, trials_refuted,
#: rungs_skipped, rungs_pruned, hier_attempts, hier_wins,
#: hier_flat_attempts, hier_flat_wins, expansions).  ``fft/ps4`` is the
#: long-route-heavy one, ``yuv2rgb`` on the hier backend the refutation-heavy
#: one (82 % of its trials are refuted, nearly all of them by the mask).  The
#: seven entries whose trajectory moved when the page plan was anchored at
#: page 0 were re-pinned: the counters are the new compile's, and
#: ``expansions`` is the same compile's with both placer shortcuts switched
#: off as in ``mask_replay_differential`` (the winner's second search
#: counted) — the search volume before the mask, which that measure
#: reproduces exactly on every entry kept.  ``yuv2rgb`` on the hier backend
#: was re-pinned the same way when its rungs lost the multi-page clustered
#: probe, which never won: only its search volume dropped.  The three trial
#: counters are now a bound: the cost floor stops scans early.
_PARENT_TRAJECTORY = {
    ("flat", "mpeg", 2): (1, 1, 3082, 2260, 1479, 0, 0, 0, 0, 0, 0, 1278),
    ("flat", "mpeg", 4): (1, 1, 2731, 1815, 1033, 0, 0, 0, 0, 0, 0, 2074),
    ("flat", "sor", 2): (4, 4, 958, 779, 421, 0, 0, 0, 0, 0, 0, 503),
    ("flat", "sor", 4): (4, 4, 311, 264, 130, 0, 0, 0, 0, 0, 0, 196),
    ("flat", "wavelet", 2): (1, 2, 1723, 1300, 753, 0, 0, 0, 0, 0, 0, 1164),
    ("flat", "wavelet", 4): (1, 2, 1911, 1498, 879, 0, 0, 0, 0, 0, 0, 1625),
    ("flat", "compress", 2): (4, 5, 2624, 2311, 1287, 0, 0, 0, 0, 0, 0, 3371),
    ("flat", "compress", 4): (4, 4, 647, 565, 269, 0, 0, 0, 0, 0, 0, 814),
    ("flat", "fft", 4): (3, 7, 37039, 26444, 17086, 0, 0, 0, 0, 0, 0, 223651),
    ("hier", "sor", 4): (4, 4, 1201, 1137, 943, 0, 0, 1, 1, 0, 0, 500),
    ("hier", "sor", 8): (4, 4, 1219, 1159, 968, 0, 0, 1, 1, 0, 0, 501),
    ("hier", "compress", 4): (4, 4, 667, 616, 449, 0, 0, 1, 1, 0, 0, 376),
    ("hier", "compress", 8): (4, 4, 677, 641, 472, 0, 0, 1, 1, 0, 0, 419),
    ("hier", "yuv2rgb", 4): (2, 5, 39527, 34784, 30292, 0, 0, 5, 0, 19, 1, 7366),
}

#: (placement_probes, trial_commits, trials_refuted) of the same compiles
#: since a placement scan stops at its cost floor (``routing.cost_floors``):
#: no later candidate could have won, so only these three fell — flat
#: ``compress`` ps2 from 2624 probes to 1197, the flat 4x4 suite's trials
#: from 168 873 to 77 747.  ``floor_differential`` shows the bytes stayed.
_FLOOR_TRIALS = {
    ("flat", "mpeg", 2): (2986, 2214, 1435),
    ("flat", "mpeg", 4): (1749, 1192, 720),
    ("flat", "sor", 2): (471, 363, 185),
    ("flat", "sor", 4): (127, 103, 18),
    ("flat", "wavelet", 2): (1100, 885, 569),
    ("flat", "wavelet", 4): (996, 776, 518),
    ("flat", "compress", 2): (1197, 985, 685),
    ("flat", "compress", 4): (166, 148, 64),
    ("flat", "fft", 4): (18340, 12284, 8869),
    ("hier", "sor", 4): (445, 400, 322),
    ("hier", "sor", 8): (451, 410, 334),
    ("hier", "compress", 4): (134, 122, 64),
    ("hier", "compress", 8): (140, 129, 73),
    ("hier", "yuv2rgb", 4): (27641, 24532, 22394),
}


@pytest.mark.parametrize("backend,kernel,page_size", sorted(_PARENT_TRAJECTORY))
def test_filter_leaves_the_search_trajectory_alone(backend, kernel, page_size):
    """A refuted candidate still counts as probed and trialled — whether
    the per-cycle mask refuted it or the per-candidate predicate did — so
    the eval-budget / candidate-cap cuts fall where they would without the
    mask: the IIs, rungs and hier counters equal the parent's values, the
    trial counters fall only where a scan stops at its cost floor
    (:data:`_FLOOR_TRIALS`), and search volume (``expansions``) drops, by
    the re-route of each op's winning candidate that replaying its trial's
    routes removes and by the trials the floor skips."""
    from repro.pipeline.compile import CompileJob, compile_job_stats

    job = (
        CompileJob(kernel, 4, page_size, seed=0)
        if backend == "flat"
        else CompileJob(
            kernel, 8, page_size, seed=0, arch="8x8-memcols", backend="hier"
        )
    )
    artifact, stats = compile_job_stats(job)
    c = stats.counters
    parent = _PARENT_TRAJECTORY[backend, kernel, page_size]
    parent_trials, parent_expansions = parent[2:5], parent[-1]
    assert [
        artifact.ii_base, artifact.ii_paged, c["rungs_skipped"],
        c["rungs_pruned"], c["hier_attempts"], c["hier_wins"],
        c["hier_flat_attempts"], c["hier_flat_wins"],
    ] == [*parent[:2], *parent[5:-1]]
    trials = c["placement_probes"], c["trial_commits"], c["trials_refuted"]
    assert trials == _FLOOR_TRIALS[backend, kernel, page_size]
    assert all(now <= then for now, then in zip(trials, parent_trials))
    assert c["expansions"] < parent_expansions


#: ``random_dfg`` draws for the differential below: ``(seed, n_ops, mapper
#: seeds tier-1 runs)``, named by what their ladders do at ``max_ii=10`` (at
#: mapper seed 0; a perturbed attempt of another seed may land elsewhere).
#: Flat 4x4 ps2: the chain ladder is exhausted and the ring wins / chain and
#: ring are both exhausted (stored unmappable) / the chain wins and
#: page-need shrinking re-maps it.  Hier 8x8-memcols ps4: the one-page
#: probe wins ("clustered") / a flat fallback rung wins / every rung fails.
#: The draws that climb failing ladders to the top cost ~1 s per mapper
#: seed, so tier-1 runs them at seed 0 only;
#: ``python tests/test_recompile_bytes.py`` (a CI step) runs every draw at
#: mapper seeds 0-3.
MASK_DRAWS = {
    ("flat", "ring"): (167, 7, (0,)),
    ("flat", "unmappable"): (132, 7, (0,)),
    ("flat", "chain"): (28, 10, range(4)),
    ("hier", "clustered"): (15, 9, range(4)),
    ("hier", "fallback"): (6, 9, range(4)),
    ("hier", "unmappable"): (14, 9, (0,)),
}


def draw_jobs(backend, outcome, mapper_seeds):
    """``(kernel, jobs)``: the compile jobs of the ``MASK_DRAWS`` draw at
    each of *mapper_seeds* (``max_ii=10``, four attempts per rung), and
    what their kernel lookup (``compile_mod.get_kernel``) must find."""
    import types

    from repro.compiler.ems import MapperConfig
    from repro.dfg.random_dfg import random_dfg
    from repro.pipeline.compile import CompileJob

    seed, n_ops, _tier1 = MASK_DRAWS[backend, outcome]
    drawn = types.SimpleNamespace(build=lambda: random_dfg(seed, n_ops=n_ops))
    jobs = []
    for mapper_seed in mapper_seeds:
        config = MapperConfig(
            seed=mapper_seed, attempts_per_ii=4, max_ii=10, backend=backend
        )
        jobs.append(
            CompileJob("drawn", 4, 2, mapper=config)
            if backend == "flat"
            else CompileJob("drawn", 8, 4, arch="8x8-memcols", mapper=config)
        )
    return drawn, jobs


def mask_replay_differential(backend, outcome, mapper_seeds) -> None:
    """The placer with its two shortcuts switched off — every candidate's
    bit set on an inexact cycle, so each trial asks the per-candidate
    predicate, and the winner searched again through ``_commit_candidate``
    instead of replayed — produces the same artifact bytes and the same
    counters at every mapper seed (the winner's second search aside, which
    the reference keeps off the books), and that second search finds the
    replayed routes."""
    from unittest import mock

    import repro.pipeline.compile as compile_mod
    from repro.compiler.ems import EMSMapper, MapperConfig

    drawn, jobs = draw_jobs(backend, outcome, mapper_seeds)
    rerouted = []

    def reroute(self, dfg, st, op_id, pe_id, t, routes):
        before = dict(vars(st.stats))
        assert self._commit_candidate(
            dfg, st.mrt.ii, st, op_id, pe_id, t,
            *self._placed_edges(dfg, st, op_id),
        )
        vars(st.stats).update(before)
        assert [st.routes[r.edge_id] for r in routes] == routes
        rerouted.append(len(routes))

    def compile_all():
        out = []
        for job in jobs:
            artifact, stats = compile_mod.compile_job_stats(job)
            out.append((artifact.to_json(), stats.counters, stats.ladders))
        return out

    with mock.patch.object(compile_mod, "get_kernel", lambda name: drawn):
        real = compile_all()
        with mock.patch.object(
            EMSMapper, "_candidate_mask", lambda self, *args: (-1, False)
        ), mock.patch.object(EMSMapper, "_replay", reroute):
            reference = compile_all()
    assert [run[:2] for run in real] == [run[:2] for run in reference]
    assert sum(rerouted) > 0
    if 0 not in mapper_seeds:
        return
    # at mapper seed 0 the draw does what its name says
    artifact, counters, ladders = json.loads(real[0][0]), real[0][1], real[0][2]
    assert counters["trials_refuted"] > 0
    assert artifact["unmappable"] == (outcome == "unmappable")
    assert artifact["layout_wrap"] == (outcome == "ring")
    if backend == "flat":
        # both topologies were climbed exactly when the chain was exhausted,
        # each from the bound to the last rung of a paged ladder — the II
        # ceiling (which cuts the ring draw's chain at 9) or ``max_ii``,
        # whichever is lower — and nothing was climbed above it
        cgra = CGRA(4, 4)
        layout = compile_mod.make_layout(cgra, 2)
        mapper = EMSMapper(cgra, layout, MapperConfig(max_ii=10))
        first, last = mapper.ladder_rungs(drawn.build())
        assert last == (10 if outcome == "unmappable" else 9)
        _base, chain, *rest = ladders
        assert chain.start_ii == first
        assert (chain.winner is None) == (outcome != "chain")
        if outcome != "chain":
            ring = rest[0]
            assert (ring.winner is None) == (outcome == "unmappable")
            assert chain.timeline[-1][:2] == [last, 3]
            assert ring.start_ii == first and ring.timeline[-1][0] <= last
            assert (len(rest) == 1) == (outcome == "unmappable")
        assert outcome != "chain" or artifact["pages_used"] < 8
    else:
        assert counters["hier_wins"] == (outcome == "clustered")
        assert counters["hier_flat_wins"] == (outcome == "fallback")


@pytest.mark.parametrize("backend,outcome", sorted(MASK_DRAWS))
def test_mask_and_replay_change_no_byte_and_no_counter(backend, outcome):
    mask_replay_differential(backend, outcome, MASK_DRAWS[backend, outcome][2])


#: Counters the cost floor may only lower (the search it skips), and the
#: ones it must leave alone (the ladder's walk).
_SEARCH_COUNTERS = (
    "route_calls", "routes_refuted", "trials_refuted", "bfs_calls",
    "dfs_calls", "expansions", "placement_probes", "trial_commits",
)


def floor_differential(jobs, kernel=None) -> int:
    """The placer with its cost floor switched off — every placement scan
    runs on to its budget cuts, as it did before the floor — compiles
    *jobs* to the same artifact bytes and the same ladders (winner, rungs,
    stuck ops), with no search counter above the floor-off run's and every
    other counter equal.  *kernel* is what the jobs' kernel lookup finds
    (a ``draw_jobs`` draw), if given.  Returns the trials the floor saved."""
    import contextlib
    import math
    from unittest import mock

    import repro.compiler.ems as ems_mod
    import repro.pipeline.compile as compile_mod

    def compile_all():
        out = []
        for job in jobs:
            artifact, stats = compile_mod.compile_job_stats(job)
            ladders = [(r.winner, r.per_ii(), r.stuck()) for r in stats.ladders]
            out.append((artifact.to_json(), ladders, stats.counters))
        return out

    def no_floor(t_lo, t_hi, *_):
        return [-math.inf] * (t_hi - t_lo + 1)

    with contextlib.ExitStack() as patches:
        if kernel is not None:
            patches.enter_context(
                mock.patch.object(compile_mod, "get_kernel", lambda name: kernel)
            )
        floored = compile_all()
        patches.enter_context(mock.patch.object(ems_mod, "cost_floors", no_floor))
        unfloored = compile_all()
    saved = 0
    for (artifact, ladders, c), (artifact0, ladders0, c0) in zip(floored, unfloored):
        assert artifact == artifact0
        assert ladders == ladders0
        for name in c:
            if name in _SEARCH_COUNTERS:
                assert c[name] <= c0[name], name
            else:
                assert c[name] == c0[name], name
        saved += c0["trial_commits"] - c["trial_commits"]
    return saved


def test_cost_floor_changes_no_byte_on_a_suite_slice():
    from repro.pipeline.compile import CompileJob

    jobs = [CompileJob(k, 4, ps) for k in ("sor", "compress") for ps in (2, 4)]
    jobs.append(CompileJob("sor", 8, 4, arch="8x8-memcols", backend="hier"))
    assert floor_differential(jobs) > 0


@pytest.mark.parametrize(
    # the flat ring draw costs 2.3 s with the floor off (two failing chain
    # and ring climbs); ``python tests/test_recompile_bytes.py`` runs it,
    # and every draw at mapper seeds 0-3
    "backend,outcome", sorted(set(MASK_DRAWS) - {("flat", "ring")})
)
def test_cost_floor_changes_no_byte_on_the_mask_draws(backend, outcome):
    """Mapper seed 0, failing ladders included, where the stuck ops and
    the budget cuts must come out the same."""
    kernel, jobs = draw_jobs(backend, outcome, (0,))
    floor_differential(jobs, kernel)


def test_cost_floor_bounds_every_trial():
    """Soundness of the stop: with the stop switched off, every feasible
    trial costs at least the floor of a one-cycle window at its cycle, and
    with the time term at least the suffix-minimum floor the scan would
    compare with — on random draws (both fabrics, both page sizes)."""
    import math
    from unittest import mock

    import repro.compiler.ems as ems_mod
    from repro.compiler.ems import EMSMapper, MapperConfig
    from repro.compiler.paged import map_dfg_paged
    from repro.dfg.random_dfg import random_dfg
    from repro.pipeline.compile import make_layout
    from repro.util.errors import LadderExhausted

    cost_floors, trial_cost = ems_mod.cost_floors, EMSMapper._trial_cost
    scan = {}  # the current placement scan's floor arguments and floors
    tally = Counter()

    def floors(t_lo, t_hi, *anchors):
        scan.update(t_lo=t_lo, anchors=anchors)
        scan["floors"] = cost_floors(t_lo, t_hi, *anchors)
        return [-math.inf] * (t_hi - t_lo + 1)

    def trial(self, dfg, ii, st, op_id, pe, t, *edges):
        out = trial_cost(self, dfg, ii, st, op_id, pe, t, *edges)
        if out is not None:
            at_t = cost_floors(t, t, *scan["anchors"])[0]
            assert out[0] >= at_t
            t_lo = scan["t_lo"]
            assert out[0] + 0.25 * (t - t_lo) >= scan["floors"][t - t_lo]
            tally["tight" if out[0] == at_t else "slack"] += 1
        return out

    draws = [(random_dfg(seed, n_ops=4 + seed % 7), seed) for seed in range(10)]
    config = MapperConfig(max_ii=10, attempts_per_ii=2)
    with mock.patch.object(ems_mod, "cost_floors", floors), mock.patch.object(
        EMSMapper, "_trial_cost", trial
    ):
        for dfg, seed in draws:
            cgra = preset(("4x4", "4x4-memcols")[seed % 2])
            layout = make_layout(cgra, (2, 4)[seed // 2 % 2])
            try:
                map_dfg_paged(dfg, cgra, layout, config=config)
            except LadderExhausted:
                pass
    # the bound is met with equality on a real share of the trials (that
    # is what lets the scan stop)
    assert tally["tight"] > 0 and tally["slack"] > 0
