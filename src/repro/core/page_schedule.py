"""Page-level view of a mapping: the schedule ``P = {p_(n,t)}`` of §VI-C.

A paged mapping groups every claimed (PE, modulo-slot) — operations *and*
route steps — into *page instances*: ``p_(n, t)`` is the set of things page
*n* does at modulo time *t*.  The PageMaster transformation moves these
instances around as rigid units, so this module records, per instance, each
item's page-local coordinate and flat start time, plus the *actual*
page-level dependencies observed in the mapping (which must be a subset of
the ring pattern the transformation assumes).

This module deliberately avoids importing :mod:`repro.compiler` (the paged
compiler imports us); it consumes any object with the
:class:`~repro.compiler.mapping.Mapping` attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch.interconnect import Coord
from repro.core.paging import PageLayout
from repro.util.errors import ConstraintViolation
from repro.util.spans import span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.compiler.mapping import Mapping

__all__ = ["SlotItem", "PageInstance", "PageSchedule", "extract_page_schedule"]


@dataclass(frozen=True)
class SlotItem:
    """One occupant of a page instance.

    ``kind`` is ``"op"`` (ref = DFG op id) or ``"route"`` (ref = DFG edge
    id, ``hop`` = index of the step within the edge's route).  ``flat_time``
    is the item's consumer-frame start time for kernel iteration 0 — it can
    be negative for route steps of loop-carried edges; modulo ``II`` it
    lands in this instance's slot.
    """

    kind: str
    ref: int
    local: Coord
    flat_time: int
    hop: int = 0


@dataclass(frozen=True)
class PageInstance:
    """Contents of page *n* at modulo time *t*."""

    page: int
    mtime: int
    items: tuple[SlotItem, ...]


@dataclass
class PageSchedule:
    """``P``: page instances plus observed page-level dependencies.

    ``deps`` holds the transfers the mapping actually performs, as tuples
    ``((n_src, t_src), (n_dst, t_dst), kind)`` with ``kind`` in
    ``{"self", "ring"}`` and ``t_dst == (t_src + 1) % II``.
    """

    layout: PageLayout
    ii: int
    instances: dict[tuple[int, int], PageInstance] = field(default_factory=dict)
    deps: set[tuple[tuple[int, int], tuple[int, int], str]] = field(
        default_factory=set
    )

    @property
    def num_pages(self) -> int:
        return self.layout.num_pages

    def instance(self, page: int, mtime: int) -> PageInstance:
        key = (page, mtime % self.ii)
        inst = self.instances.get(key)
        if inst is None:
            return PageInstance(page, mtime % self.ii, ())
        return inst

    def occupancy(self) -> float:
        """Fraction of (page, modulo-slot) pairs that do any work."""
        busy = sum(1 for inst in self.instances.values() if inst.items)
        return busy / float(self.num_pages * self.ii)

    def validate_ring(self) -> None:
        """Every observed dependency must fit the ring pattern: same page,
        or from the ring predecessor, always one cycle apart."""
        for (src, dst, kind) in sorted(self.deps):
            (n_s, t_s), (n_d, t_d) = src, dst
            if t_d != (t_s + 1) % self.ii and self.ii > 1:
                raise ConstraintViolation(
                    f"page dep {src}->{dst} is not one cycle apart"
                )
            if kind == "self":
                if n_s != n_d:
                    raise ConstraintViolation(f"self dep {src}->{dst} changes page")
            elif kind == "ring":
                if n_d != self.layout.ring_succ(n_s):
                    raise ConstraintViolation(
                        f"ring dep {src}->{dst} is not a forward ring hop"
                    )
            else:
                raise ConstraintViolation(f"unknown dep kind {kind!r}")

    def summary(self) -> str:
        ring = sum(1 for d in self.deps if d[2] == "ring")
        return (
            f"page schedule: {self.num_pages} pages x II={self.ii}, "
            f"occupancy {self.occupancy():.2f}, "
            f"{len(self.deps)} page deps ({ring} ring)"
        )


@span("core.extract_page_schedule")
def extract_page_schedule(mapping: "Mapping", layout: PageLayout) -> PageSchedule:
    """Group a ring-constrained mapping into its page-level schedule."""
    ii = mapping.ii
    items: dict[tuple[int, int], list[SlotItem]] = {}

    def put(pe: Coord, time: int, item_kind: str, ref: int, hop: int = 0) -> None:
        page = layout.page_of.get(pe)
        if page is None:
            raise ConstraintViolation(
                f"{item_kind} {ref} placed on uncovered PE {pe}"
            )
        key = (page, time % ii)
        items.setdefault(key, []).append(
            SlotItem(item_kind, ref, layout.local_of[pe], time, hop)
        )

    for p in mapping.placements.values():
        put(p.pe, p.time, "op", p.op_id)
    for r in mapping.routes.values():
        for hop, s in enumerate(r.steps):
            put(s.pe, s.time, "route", r.edge_id, hop)

    deps: set[tuple[tuple[int, int], tuple[int, int], str]] = set()

    def transfer(src_pe: Coord, src_time: int, dst_pe: Coord, dst_time: int) -> None:
        n_s = layout.page_of[src_pe]
        n_d = layout.page_of[dst_pe]
        kind = "self" if n_s == n_d else "ring"
        deps.add(((n_s, src_time % ii), (n_d, dst_time % ii), kind))

    from repro.arch.isa import Opcode

    for e in mapping.dfg.edges.values():
        if mapping.dfg.ops[e.src].opcode is Opcode.CONST:
            continue  # constant operands are configuration immediates
        dst = mapping.placement(e.dst)
        holder_pe, holder_time = mapping.route_origin(e)
        for s in mapping.route(e.id).steps:
            transfer(holder_pe, holder_time, s.pe, s.time)
            holder_pe, holder_time = s.pe, s.time
        transfer(holder_pe, holder_time, dst.pe, dst.time)

    schedule = PageSchedule(
        layout,
        ii,
        {
            key: PageInstance(key[0], key[1], tuple(v))
            for key, v in sorted(items.items())
        },
        deps,
    )
    schedule.validate_ring()
    return schedule
