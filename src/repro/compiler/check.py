"""Mapping validation.

Independently re-checks everything the mapper is supposed to guarantee, so
tests can treat the mapper as untrusted:

* every op placed exactly once, on a PE the page layout covers;
* modulo-slot exclusivity and data-bus capacity (per grid row, or per
  the layout's (page, local row) segment), by booking every placement and
  route step into a fresh :class:`~repro.compiler.mrt.ReservationTable`;
* every edge's value physically reaches its consumer: timing gap >= 1,
  route steps contiguous in time, each hop 1-cycle reachable, and the final
  holder adjacent-or-same to the consumer;
* under a page layout, every hop obeys the §VI-B ring-topology
  constraint;
* on heterogeneous fabrics, capability legality: each op sits on a PE
  supporting its op class and every route step sits on a ROUTE-capable PE
  (:class:`~repro.util.errors.CapabilityViolation`).

The inner loops run in the :class:`~repro.arch.interconnect.GridIndex`
integer id domain: adjacency is one probe of the precomputed Manhattan
matrix (on the mesh it is the hop distance), ring hops are resolved per
PE-id pair once and memoized.
Coordinates only reappear in error messages.
"""

from __future__ import annotations

from repro.arch.capability import OpClass, op_class
from repro.arch.interconnect import Coord
from repro.compiler.constraints import covered_pes, ring_hop_ok
from repro.compiler.mapping import Mapping, materialized_edges, materialized_ops
from repro.compiler.mrt import ReservationTable
from repro.core.paging import PageLayout
from repro.util.errors import CapabilityViolation, ConstraintViolation, MappingError

__all__ = ["validate_mapping"]


def validate_mapping(mapping: Mapping, layout: PageLayout | None = None) -> None:
    """Raise :class:`MappingError` / :class:`ConstraintViolation` on any
    inconsistency in *mapping*, checked against the §VI-B constraints of
    *layout* (none: the whole array).
    """
    cgra, dfg, ii = mapping.cgra, mapping.dfg, mapping.ii
    gi = cgra.grid_index
    id_of, coords, manhattan = gi.id_of, gi.coords, gi.manhattan
    n_pes = len(coords)

    allowed_mask: bytearray | None = None
    if layout is not None:
        allowed_mask = bytearray(n_pes)
        for pe in covered_pes(cgra, layout):
            allowed_mask[id_of[pe]] = 1
    hop_cache: dict[int, bool] = {}

    def check_hop(src_id: int, dst_id: int, what: str) -> None:
        if manhattan[src_id][dst_id] > 1:
            raise MappingError(
                f"{what}: {coords[src_id]} -> {coords[dst_id]} is not a "
                "1-hop link"
            )
        if layout is None:
            return
        key = src_id * n_pes + dst_id
        ok = hop_cache.get(key)
        if ok is None:
            ok = ring_hop_ok(layout, coords[src_id], coords[dst_id])
            hop_cache[key] = ok
        if not ok:
            raise ConstraintViolation(
                f"{what}: hop {coords[src_id]} -> {coords[dst_id]} violates "
                "the ring-topology constraint"
            )

    # placement completeness and slot exclusivity (CONST ops are folded
    # into consumer operands and never occupy fabric slots)
    expected = set(materialized_ops(dfg))
    if set(mapping.placements) != expected:
        missing = expected - set(mapping.placements)
        extra = set(mapping.placements) - expected
        raise MappingError(f"placement mismatch: missing={missing} extra={extra}")
    table = ReservationTable(cgra, ii, layout)

    def claim(pe: Coord, time: int, label: str, memory: bool = False) -> int:
        pid = id_of.get(pe)
        if pid is None:
            raise MappingError(f"{label} on PE {pe} outside the grid")
        if allowed_mask is not None and not allowed_mask[pid]:
            raise ConstraintViolation(f"{label} on disallowed PE {pe}")
        try:
            table.claim_id(pid, time, memory=memory)
        except (MappingError, ConstraintViolation) as exc:
            raise type(exc)(f"{label}: {exc}") from None
        return pid

    # capability legality (heterogeneous fabrics only; cap/route_mask stay
    # None on the homogeneous default and the checks vanish)
    cap = cgra.capability
    route_mask = cgra.class_mask(OpClass.ROUTE) if cap is not None else None

    pid_of_op: dict[str, int] = {}
    for p in mapping.placements.values():
        op = dfg.ops[p.op_id]
        pid = claim(p.pe, p.time, f"op{p.op_id}", op.is_memory)
        pid_of_op[p.op_id] = pid
        if cap is not None:
            cls = op_class(op.opcode)
            if not cap.supports_id(cls, pid):
                raise CapabilityViolation(
                    f"op{p.op_id} ({cls.value}) placed on {p.pe}, which "
                    f"does not support op class {cls.value!r}"
                )
    for r in mapping.routes.values():
        for s in r.steps:
            pid = claim(s.pe, s.time, f"route{r.edge_id}@{s.time}")
            if route_mask is not None and not route_mask[pid]:
                raise CapabilityViolation(
                    f"route step of edge {r.edge_id} on {s.pe}, which does "
                    "not support op class 'route'"
                )

    # dataflow reachability per edge (constant operands need no routing).
    # Fanout-shared routes may *tap* a sibling route step (same producer,
    # same loop distance) instead of starting at the producer.
    for e in materialized_edges(dfg):
        src = mapping.placement(e.src)
        dst = mapping.placement(e.dst)
        t_src_eff = src.time - e.distance * ii
        gap = dst.time - t_src_eff
        if gap < 1:
            raise MappingError(
                f"edge {e.id} ({e.src}->{e.dst}, d={e.distance}): "
                f"non-causal gap {gap}"
            )
        route = mapping.route(e.id)
        if route.tap is not None:
            siblings = {
                (s.pe, s.time)
                for e2 in dfg.out_edges(e.src)
                if e2.id != e.id and e2.distance == e.distance
                for s in mapping.route(e2.id).steps
            }
            if (route.tap.pe, route.tap.time) not in siblings:
                raise MappingError(
                    f"edge {e.id}: tap {route.tap} is not a sibling route step"
                )
        holder, holder_time = mapping.route_origin(e)
        holder_id = id_of[holder]
        if len(route.steps) != dst.time - holder_time - 1:
            raise MappingError(
                f"edge {e.id}: origin at t={holder_time} needs "
                f"{dst.time - holder_time - 1} route steps, has "
                f"{len(route.steps)}"
            )
        for s in route.steps:
            if s.time != holder_time + 1:
                raise MappingError(
                    f"edge {e.id}: route step at time {s.time}, expected "
                    f"{holder_time + 1}"
                )
            step_id = id_of[s.pe]  # on the grid: every step was claimed
            check_hop(holder_id, step_id, f"edge {e.id} route")
            holder_id, holder_time = step_id, s.time
        check_hop(holder_id, pid_of_op[e.dst], f"edge {e.id} final read")
