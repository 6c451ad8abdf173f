"""The paper's compile-time paging constraints (§VI-B), as mapper plug-ins.

1. **Data-flow (ring-topology) constraint** — inter-page dependencies must
   form a subset of a ring: a value on page *a* may be read one cycle later
   only within page *a* or on the ring-successor page.
   :func:`ring_hop_filter` turns a :class:`~repro.core.paging.PageLayout`
   into the hop predicate the router and validator consume; hops into
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
   :func:`repro.compiler.check.validate_mapping` (contiguous route steps)
   and, on stored artifacts, by the ``MAP-REGDEPTH`` audit rule.

3. **Fold-safe bus constraint** — memory ops budget their page's banked bus
   segment (see :mod:`repro.compiler.mrt`); :func:`paged_bus_key` builds
   the segment key.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.arch.interconnect import Coord
from repro.core.paging import PageLayout
from repro.util.errors import ConstraintViolation

__all__ = [
    "ring_hop_filter",
    "paged_bus_key",
    "register_usage_report",
]


def ring_hop_filter(layout: PageLayout) -> Callable[[Coord, Coord], bool]:
    """Hop predicate enforcing the §VI-B ring-topology constraint."""

    page_of = layout.page_of

    def allowed(src: Coord, dst: Coord) -> bool:
        a = page_of.get(src)
        b = page_of.get(dst)
        if a is None or b is None:  # uncovered PEs are off-limits
            return False
        return layout.ring_hop_allowed(a, b)

    return allowed


def paged_bus_key(layout: PageLayout) -> Callable[[Coord], Hashable]:
    """Bus segment key ``(page, local row)`` for the banked-memory model."""

    def key(pe: Coord) -> Hashable:
        page = layout.page_of.get(pe)
        if page is None:
            raise ConstraintViolation(f"memory op on uncovered PE {pe}")
        return (page, layout.local_of[pe].row)

    return key


def register_usage_report(mapping) -> dict[str, int]:
    """How much value-transfer state a mapping keeps in flight.

    ``self_holds`` counts route steps that stay on the same PE (a value
    parked in place for a cycle — occupying a slot, not a deep register);
    ``move_hops`` counts real mesh hops.  Under the register-usage
    constraint both are explicit schedule slots, so rotating registers stay
    free.
    """
    from repro.compiler.mapping import materialized_edges

    self_holds = 0
    move_hops = 0
    for e in materialized_edges(mapping.dfg):
        src = mapping.placement(e.src)
        holder = src.pe
        for step in mapping.route(e.id).steps:
            if step.pe == holder:
                self_holds += 1
            else:
                move_hops += 1
            holder = step.pe
    return {"self_holds": self_holds, "move_hops": move_hops}

