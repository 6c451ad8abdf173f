"""The paper's compile-time paging constraints (§VI-B), as functions of a
:class:`~repro.core.paging.PageLayout`.

Every constraint is derived from the layout alone, so the layout (or
``None``, the whole array) is the only constraint value the compiler
passes around: the mapper, the reservation table, the router and the
validator each work their part out of it with the functions below.

What one modulo slot offers — PEs, mem-capable PEs and bus ports, of the
whole array or of one page — is :func:`slot_capacity`, the compiler's one
reader of the fabric's port count and capability masks.  Its records feed
the II lower bound (the mapper's first rung), the page-need bound
:func:`page_need` (the hier backend's one-page test, page minimisation)
and the reservation table's bus budget, which the validator books
through.

1. **Data-flow (ring-topology) constraint** — inter-page dependencies must
   form a subset of a ring: a value on page *a* may be read one cycle later
   only within page *a* or on the ring-successor page.
   :func:`ring_hop_ok` is that rule for one hop between PEs; hops into
   uncovered PEs are rejected too.

2. **Register-usage constraint** — "the compiler must use memory [and the
   interconnect] to store temporary variables ... the local register file
   in the PEs will be used for the transformation."  In this codebase the
   constraint is structural: compiled mappings express *every* producer-to-
   consumer transfer as explicit per-cycle slots (route steps), i.e. all
   operand reads have register-file depth 1, so the entire rotating file
   remains free for the PageMaster transformation to stretch lifetimes.
   :func:`register_usage_report` quantifies how much transfer state a
   mapping keeps in flight; the depth-1 property itself is checked by
   :func:`repro.compiler.check.validate_mapping` (exactly one route step
   per cycle between producer and consumer), on stored artifacts too, where
   the auditor reports it as ``MAP-LEGAL``.

3. **Fold-safe bus constraint** — memory ops budget their page's banked bus
   segment (see :mod:`repro.compiler.mrt`): :func:`bus_segment` names it,
   :attr:`SlotCapacity.segment_ports` its budget, :func:`paged_bus_key` hands
   the same model to the simulator.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Hashable, NamedTuple

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.compiler.mapping import materialized_edges, materialized_ops
from repro.core.paging import PageLayout
from repro.dfg.graph import DFG
from repro.util.errors import ConstraintViolation

__all__ = [
    "SlotCapacity",
    "covered_pes",
    "slot_capacity",
    "page_need",
    "ring_hop_ok",
    "bus_segment",
    "paged_bus_key",
    "register_usage_report",
]


def covered_pes(cgra: CGRA, layout: PageLayout | None) -> tuple[Coord, ...]:
    """The PEs a mapping may use, in grid order: the layout's pages, or
    the whole array."""
    if layout is None:
        return tuple(cgra.coords())
    return tuple(pe for pe in cgra.coords() if pe in layout.page_of)


class SlotCapacity(NamedTuple):
    """What one modulo slot offers a mapping on a set of PEs."""

    pes: int  #: PEs, each one op or routed value per slot
    mem_pes: int  #: PEs able to issue a memory op
    bus_ports: int  #: memory ops all its bus segments carry per slot
    segment_ports: int  #: memory ops one bus segment carries per slot

    @property
    def mem_ops(self) -> int:
        """Memory ops one slot can issue: min(bus ports, mem-capable PEs)."""
        return min(self.bus_ports, self.mem_pes)


def slot_capacity(
    cgra: CGRA, layout: PageLayout | None = None, page: int | None = None
) -> SlotCapacity:
    """What one modulo slot offers: the whole array (no *layout*), the
    layout's covered PEs (no *page*), or page *page* of the layout.  A bus
    segment is a grid row on the whole array, a (page, local row) under a
    layout (:func:`bus_segment`)."""
    ports = cgra.mem_ports_per_row
    if layout is None:
        cap = cgra.capability
        n = cgra.num_pes
        mem_pes = n if cap is None else len(cap.ids(OpClass.MEM))
        return SlotCapacity(n, mem_pes, cgra.rows * ports, ports)
    mask = cgra.class_mask(OpClass.MEM)
    if page is None:
        pes, segments = layout.page_of, layout.num_pages * layout.shape[0]
    else:
        pes, segments = layout.coords_of_page(page), layout.shape[0]
    id_of = cgra.grid_index.id_of
    mem_pes = (
        len(pes) if mask is None else sum(1 for pe in pes if mask[id_of[pe]])
    )
    return SlotCapacity(len(pes), mem_pes, segments * ports, ports)


def page_need(dfg: DFG, layout: PageLayout, ii: int) -> int:
    """Fewest chain pages that can hold *dfg* at *ii*: the shortest prefix
    of *layout*'s chain whose summed op slots and memory-op slots over *ii*
    cycles cover the DFG's ops and memory ops.  ``num_pages + 1`` when the
    whole chain cannot."""
    n_ops, n_mem = len(materialized_ops(dfg)), dfg.num_memory_ops
    ops = mem = 0
    for n in range(layout.num_pages):
        cap = slot_capacity(layout.cgra, layout, n)
        ops += cap.pes * ii
        mem += cap.mem_ops * ii
        if ops >= n_ops and mem >= n_mem:
            return n + 1
    return layout.num_pages + 1


def ring_hop_ok(layout: PageLayout, src: Coord, dst: Coord) -> bool:
    """May a value move from *src* to *dst* in one cycle under the §VI-B
    ring-topology constraint?  Uncovered PEs are off-limits."""
    a = layout.page_of.get(src)
    b = layout.page_of.get(dst)
    return a is not None and b is not None and layout.ring_hop_allowed(a, b)


def bus_segment(layout: PageLayout | None, pe: Coord) -> Hashable:
    """The data-bus segment a memory op on *pe* uses: its grid row on the
    whole array, ``(page, local row)`` — the banked-memory model — under a
    layout."""
    if layout is None:
        return pe.row
    page = layout.page_of.get(pe)
    if page is None:
        raise ConstraintViolation(f"memory op on uncovered PE {pe}")
    return (page, layout.local_of[pe].row)


def paged_bus_key(layout: PageLayout) -> Callable[[Coord], Hashable]:
    """:func:`bus_segment` of *layout* as the simulator's ``bus_key``."""
    return partial(bus_segment, layout)


def register_usage_report(mapping) -> dict[str, int]:
    """How much value-transfer state a mapping keeps in flight.

    ``self_holds`` counts route steps that stay on the same PE (a value
    parked in place for a cycle — occupying a slot, not a deep register);
    ``move_hops`` counts real mesh hops.  A fanout-shared route starts at
    its tap, not at the producer.  Under the register-usage constraint both
    are explicit schedule slots, so rotating registers stay free.
    """
    self_holds = 0
    move_hops = 0
    for e in materialized_edges(mapping.dfg):
        holder, _ = mapping.route_origin(e)
        for step in mapping.route(e.id).steps:
            if step.pe == holder:
                self_holds += 1
            else:
                move_hops += 1
            holder = step.pe
    return {"self_holds": self_holds, "move_hops": move_hops}
