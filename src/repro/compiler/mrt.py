"""Modulo reservation table.

Tracks which (PE, modulo-slot) pairs are claimed by operations or route
steps and how much data-bus capacity each modulo slot has consumed.  This
is the resource model of classic modulo scheduling (Rau) adapted to a CGRA:
the PE array is the function-unit pool and the memory buses are the shared
resource (§III: "a shared data bus for each row of the CGRA").  The mapper
books its placements and routes here, and :func:`~repro.compiler.check.
validate_mapping` books a finished mapping into a fresh table.

Bus segmentation: on the whole array a memory op claims capacity on its
*grid row*'s bus.  Under a page layout buses are keyed by ``(page, local
row)`` instead (:func:`~repro.compiler.constraints.bus_segment`) — a
banked-memory model where each page's rows have their own bus segment.
This is what makes schedules *foldable*: when the PageMaster
transformation stacks page instances onto fewer tiles, each tile carries at
most one page instance per cycle, so per-page bus budgets remain valid on
the physical tile.  (With a monolithic per-grid-row bus, folding two pages
that each legally used the row's bus would oversubscribe it.)  A segment's
budget is :attr:`~repro.compiler.constraints.SlotCapacity.segment_ports`.

Storage model: two records of one occupancy.  :attr:`ReservationTable.
occupied` is a flat ``ii x num_pes`` bytearray (1 == taken) indexed by
``modulo_slot * num_pes + pe_id`` (ids from the fabric's
:class:`~repro.arch.interconnect.GridIndex`): the routers copy it to seed
their visited sets, the placer's trap check reads it.
:attr:`ReservationTable.free_mask` holds one free-PE bitmask per modulo
slot (bit ``p`` set == PE ``p`` free), which the routers' reachability
filter ANDs its frontiers with.  Bus use is a flat per-(bus segment,
modulo slot) count array.  Every query — ``slot_free_id``,
``bus_free_id`` — is O(1) array arithmetic on integer PE ids.

Bus segments are interned lazily: a segment is only ever looked up for PEs
that actually issue memory operations, so an uncovered PE (which has no
segment) is rejected only when a memory op is put on it.
"""

from __future__ import annotations

from typing import Hashable

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.compiler.constraints import bus_segment, slot_capacity
from repro.core.paging import PageLayout
from repro.util.errors import CapabilityViolation, MappingError

__all__ = ["ReservationTable"]

_UNKNOWN_BUS = -1


class ReservationTable:
    """Slot and bus bookkeeping for one mapping attempt on *cgra*, under
    *layout*'s bus segmentation (grid rows when None)."""

    __slots__ = (
        "cgra",
        "ii",
        "layout",
        "num_pes",
        "occupied",
        "free_mask",
        "_bus_of_pe",
        "_bus_segments",
        "_bus_use",
        "_bus_cap",
        "_mem_mask",
    )

    def __init__(
        self, cgra: CGRA, ii: int, layout: PageLayout | None = None
    ) -> None:
        if ii < 1:
            raise MappingError(f"II must be >= 1, got {ii}")
        self.cgra = cgra
        self.ii = ii
        self.layout = layout
        self.num_pes = cgra.num_pes
        #: occupancy per (modulo slot, PE), flat ``[slot * num_pes + pe]``;
        #: 1 == taken
        self.occupied = bytearray(ii * self.num_pes)
        #: free-PE bitmask per modulo slot (bit p set == PE p free)
        self.free_mask: list[int] = [(1 << self.num_pes) - 1] * ii
        # lazily interned bus segments: pe_id -> segment index
        self._bus_of_pe: list[int] = [_UNKNOWN_BUS] * self.num_pes
        self._bus_segments: dict[Hashable, int] = {}
        # use count per (segment, modulo slot), flat [seg * ii + slot]
        self._bus_use: list[int] = []
        self._bus_cap = slot_capacity(cgra).segment_ports
        # None on homogeneous fabrics (no per-claim capability check at all)
        self._mem_mask = cgra.class_mask(OpClass.MEM)

    def _bus_id(self, pe_id: int) -> int:
        """Interned bus-segment index of *pe_id* (its segment is looked up
        once per PE, ever — including the error for an uncovered PE)."""
        b = self._bus_of_pe[pe_id]
        if b == _UNKNOWN_BUS:
            key = bus_segment(self.layout, self.cgra.grid_index.coords[pe_id])
            b = self._bus_segments.get(key, -1)
            if b < 0:
                b = len(self._bus_segments)
                self._bus_segments[key] = b
                self._bus_use.extend([0] * self.ii)
            self._bus_of_pe[pe_id] = b
        return b

    def slot_free_id(self, pe_id: int, time: int) -> bool:
        return not self.occupied[(time % self.ii) * self.num_pes + pe_id]

    def bus_free_id(self, pe_id: int, time: int) -> bool:
        """Can a memory op on *pe_id* use its bus segment at this modulo
        slot?"""
        used = self._bus_use[self._bus_id(pe_id) * self.ii + time % self.ii]
        return used < self._bus_cap

    def claim_id(self, pe_id: int, time: int, *, memory: bool = False) -> None:
        """Book *pe_id* at *time*'s modulo slot (and, for a memory op, its
        bus segment).  Raises :class:`MappingError` on a slot already taken
        or a full bus segment, :class:`CapabilityViolation` on a memory op
        on a PE without memory capability."""
        m = time % self.ii
        idx = m * self.num_pes + pe_id
        if self.occupied[idx]:
            pe = self.cgra.grid_index.coords[pe_id]
            raise MappingError(f"slot ({pe}, mod {m}) already claimed")
        if memory:
            if self._mem_mask is not None and not self._mem_mask[pe_id]:
                pe = self.cgra.grid_index.coords[pe_id]
                raise CapabilityViolation(
                    f"memory op on {pe}, which has no memory capability"
                )
            b = self._bus_id(pe_id)
            if self._bus_use[b * self.ii + m] >= self._bus_cap:
                pe = self.cgra.grid_index.coords[pe_id]
                raise MappingError(
                    f"bus segment {bus_segment(self.layout, pe)} full at "
                    f"modulo slot {m}"
                )
            self._bus_use[b * self.ii + m] += 1
        self.occupied[idx] = 1
        self.free_mask[m] ^= 1 << pe_id

    def release_id(self, pe_id: int, time: int, *, memory: bool = False) -> None:
        m = time % self.ii
        idx = m * self.num_pes + pe_id
        if not self.occupied[idx]:
            pe = self.cgra.grid_index.coords[pe_id]
            raise MappingError(f"slot ({pe}, mod {m}) not claimed")
        self.occupied[idx] = 0
        self.free_mask[m] ^= 1 << pe_id
        if memory:
            b = self._bus_id(pe_id)
            if self._bus_use[b * self.ii + m] <= 0:
                pe = self.cgra.grid_index.coords[pe_id]
                raise MappingError(
                    f"bus release underflow at "
                    f"{(bus_segment(self.layout, pe), m)}"
                )
            self._bus_use[b * self.ii + m] -= 1
