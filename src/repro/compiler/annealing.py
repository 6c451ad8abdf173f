"""DRESC-style simulated-annealing mapper (second baseline).

The DRESC compiler [9] maps loops onto ADRES-class CGRAs by simulated
annealing over placements, with routability folded into the cost function.
This module reproduces that approach at small scale, as the paper's related
work uses it: a slow-but-thorough baseline to contrast with the fast
EMS-style greedy mapper, and an ablation point for compile-time cost
(bench ``ALG1``/mapper-comparison).

The anneal optimises op placement under a cost with three terms: causality
violations (an edge scheduled backwards in time), stretch violations (an
edge whose Manhattan distance exceeds its timing gap, i.e. unroutable even
on an empty fabric), and modulo-slot/bus conflicts.  A zero-cost placement
is then routed in detail with the shared router; congestion failures are
penalised and the anneal resumes.

Given a page layout, the anneal runs under the paper's §VI-B constraints —
covered PEs, ring hops, the banked bus segments, each derived from the
layout exactly as the EMS-style mapper derives them — which demonstrates
the §IX claim that the multithreading framework is mapper-agnostic: the
resulting mappings feed the identical PageMaster transformation.
"""

from __future__ import annotations

import math

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import bus_segment, covered_pes, slot_capacity
from repro.compiler.feas import ii_lower_bound
from repro.compiler.mapping import (
    Mapping,
    Placement,
    Route,
    materialized_edges,
    materialized_ops,
)
from repro.compiler.mrt import ReservationTable
from repro.compiler.routing import RoutingContext, commit_route, find_route
from repro.core.paging import PageLayout
from repro.dfg.analysis import asap_times
from repro.dfg.graph import DFG
from repro.util.errors import MappingError
from repro.util.rng import make_rng

__all__ = ["anneal_map"]

_W_CAUSAL = 100.0
_W_STRETCH = 10.0
_W_CONFLICT = 25.0


def _energy(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    pos: dict[int, tuple[Coord, int]],
    layout: PageLayout | None,
) -> float:
    e = 0.0
    ports = slot_capacity(cgra).segment_ports
    slots: dict[tuple[Coord, int], int] = {}
    bus: dict[tuple, int] = {}
    for op_id, (pe, t) in pos.items():
        key = (pe, t % ii)
        slots[key] = slots.get(key, 0) + 1
        if dfg.ops[op_id].is_memory:
            bkey = (bus_segment(layout, pe), t % ii)
            bus[bkey] = bus.get(bkey, 0) + 1
    e += _W_CONFLICT * sum(c - 1 for c in slots.values() if c > 1)
    e += _W_CONFLICT * sum(c - ports for c in bus.values() if c > ports)
    for edge in materialized_edges(dfg):
        pe_u, t_u = pos[edge.src]
        pe_v, t_v = pos[edge.dst]
        gap = t_v - (t_u - edge.distance * ii)
        if gap < 1:
            e += _W_CAUSAL * (1 - gap)
            continue
        dist = pe_u.manhattan(pe_v)
        if dist > gap:
            e += _W_STRETCH * (dist - gap)
        if layout is not None:
            # ring feasibility proxy: the consumer's page must be reachable
            # by moving forward 0..gap ring hops from the producer's page
            p_u, p_v = layout.page_of[pe_u], layout.page_of[pe_v]
            steps = 0
            page = p_u
            while page != p_v and steps <= gap:
                page = layout.ring_succ(page)
                steps += 1
            if page != p_v or steps > gap:
                e += _W_STRETCH * 2
    return e


def _detailed_route(
    dfg: DFG,
    cgra: CGRA,
    ii: int,
    pos: dict[int, tuple[Coord, int]],
    ctx: RoutingContext,
) -> Mapping | None:
    """Try to realise a zero-cost placement with concrete routes (*ctx*:
    the anneal's one routing context, page layout included), validated
    against that layout."""
    mrt = ReservationTable(cgra, ii, ctx.layout)
    id_of = cgra.grid_index.id_of
    placements: dict[int, Placement] = {}
    try:
        for op_id, (pe, t) in pos.items():
            mrt.claim_id(id_of[pe], t, memory=dfg.ops[op_id].is_memory)
            placements[op_id] = Placement(op_id, pe, t)
    except MappingError:
        return None
    routes: dict[int, Route] = {}
    # route tight edges first: they have the least slack for detours
    edges = sorted(
        materialized_edges(dfg),
        key=lambda e: (pos[e.dst][1] - (pos[e.src][1] - e.distance * ii)),
    )
    for e in edges:
        pe_u, t_u = pos[e.src]
        pe_v, t_v = pos[e.dst]
        steps = find_route(
            cgra, mrt, pe_u, t_u - e.distance * ii, pe_v, t_v, ctx=ctx
        )
        if steps is None:
            return None
        commit_route(mrt, steps)
        routes[e.id] = Route(e.id, steps)
    mapping = Mapping(cgra, dfg, ii, placements, routes)
    validate_mapping(mapping, ctx.layout)
    return mapping


def anneal_map(
    dfg: DFG,
    cgra: CGRA,
    layout: PageLayout | None = None,
    *,
    seed: int = 0,
    max_ii: int = 64,
    iterations: int = 4000,
    restarts: int = 3,
) -> Mapping:
    """Map *dfg* onto *cgra* — under *layout*'s §VI-B constraints when
    given — by simulated annealing over placements.

    Deterministic for a given seed.  Raises :class:`MappingError` if no
    mapping is found up to ``max_ii``; every mapping it returns has passed
    :func:`~repro.compiler.check.validate_mapping` against *layout*.  (Use
    :func:`repro.compiler.paged.map_dfg_paged` for production compilation;
    the paged anneal exists for the mapper-independence ablation.)
    """
    cap = slot_capacity(cgra, layout)
    start_ii = ii_lower_bound(
        dfg,
        num_pes=cap.pes,
        mem_slots=cap.bus_ports,
        mem_capable_pes=cap.mem_pes,
        max_ii=max_ii,
    ).mii
    mat = materialized_ops(dfg)
    pes = covered_pes(cgra, layout)
    rng = make_rng(seed)
    asap = asap_times(dfg)
    depth = max(asap.values(), default=0)
    ctx = RoutingContext(cgra, layout)

    for ii in range(start_ii, max_ii + 1):
        horizon = depth + 3 * ii + 1
        for _ in range(restarts):
            pos = {
                v: (pes[int(rng.integers(len(pes)))], int(rng.integers(horizon)))
                for v in mat
            }
            energy = _energy(dfg, cgra, ii, pos, layout)
            temp = 10.0 + energy / 4.0
            for it in range(iterations):
                # repro: allow[DET-FLOAT-EQ] energies are sums of integer penalty weights, exact by construction
                if energy == 0.0 and it % 50 == 0:
                    mapping = _detailed_route(dfg, cgra, ii, pos, ctx)
                    if mapping is not None:
                        return mapping
                    energy += _W_CONFLICT  # congestion: keep searching
                op = mat[int(rng.integers(len(mat)))]
                old = pos[op]
                pos[op] = (
                    pes[int(rng.integers(len(pes)))],
                    int(rng.integers(horizon)),
                )
                new_energy = _energy(dfg, cgra, ii, pos, layout)
                delta = new_energy - energy
                if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-9)):
                    energy = new_energy
                else:
                    pos[op] = old
                temp *= 0.999
            # repro: allow[DET-FLOAT-EQ] energies are sums of integer penalty weights, exact by construction
            if energy == 0.0:
                mapping = _detailed_route(dfg, cgra, ii, pos, ctx)
                if mapping is not None:
                    return mapping
    raise MappingError(
        f"annealing failed to map {dfg.name!r} within II <= {max_ii}"
    )
