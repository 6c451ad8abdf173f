"""Modulo reservation table.

Tracks which (PE, modulo-slot) pairs are claimed by operations or route
steps and how much data-bus capacity each modulo slot has consumed.  This
is the resource model of classic modulo scheduling (Rau) adapted to a CGRA:
the PE array is the function-unit pool and the memory buses are the shared
resource (§III: "a shared data bus for each row of the CGRA").

Bus segmentation: by default a memory op claims capacity on its *grid
row*'s bus.  The paged compiler instead keys buses by ``(page, local
row)`` — a banked-memory model where each page's rows have their own bus
segment.  This is what makes schedules *foldable*: when the PageMaster
transformation stacks page instances onto fewer tiles, each tile carries at
most one page instance per cycle, so per-page bus budgets remain valid on
the physical tile.  (With a monolithic per-grid-row bus, folding two pages
that each legally used the row's bus would oversubscribe it.)

Storage model: one flat ``ii x num_pes`` occupancy array indexed by
``modulo_slot * num_pes + pe_id`` (PE ids from the fabric's
:class:`~repro.arch.interconnect.GridIndex`), one free-PE bitmask per
modulo slot (bit ``p`` set == PE ``p`` free; the routers' reachability
filter ANDs its frontiers with it), and a flat per-(bus segment, modulo
slot) use-count array.  Every query the mapper's inner loops issue —
``slot_free``, ``free_slots_at``, ``bus_free`` — is O(1) array arithmetic,
and ``copy`` is a handful of flat ``copy`` calls.  The Coord-taking methods
remain the public API; the ``*_id`` variants are the hot-path entry points
for callers that already hold integer PE ids.

Bus segments are interned lazily: ``bus_key`` is only ever invoked for PEs
that actually issue memory operations, so a key function that rejects some
PEs (e.g. :func:`~repro.compiler.constraints.paged_bus_key` raising on
uncovered PEs) behaves exactly as it did with the dict-backed table.
"""

from __future__ import annotations

from typing import Callable, Hashable

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.util.errors import CapabilityViolation, MappingError

__all__ = ["ReservationTable"]

BusKey = Callable[[Coord], Hashable]

_UNKNOWN_BUS = -1


class ReservationTable:
    """Slot and bus bookkeeping for one mapping attempt."""

    __slots__ = (
        "cgra",
        "ii",
        "bus_key",
        "num_pes",
        "_occ",
        "_occ_mask",
        "free_mask",
        "_bus_of_pe",
        "_bus_segments",
        "_bus_use",
        "_bus_cap",
        "_mem_mask",
    )

    def __init__(
        self,
        cgra: CGRA,
        ii: int,
        bus_key: BusKey | None = None,
    ) -> None:
        if ii < 1:
            raise MappingError(f"II must be >= 1, got {ii}")
        self.cgra = cgra
        self.ii = ii
        if bus_key is None:
            bus_key = lambda pe: pe.row  # noqa: E731 - default segment: grid row
        self.bus_key = bus_key
        self.num_pes = cgra.num_pes
        # occupancy label per (modulo slot, PE), flat; None == free
        self._occ: list[str | None] = [None] * (ii * self.num_pes)
        # the same occupancy as a bytearray bitmap (1 == taken), kept in
        # lockstep so the routers' inner loops test one byte per slot and
        # seed their visited sets with a C-speed copy
        self._occ_mask = bytearray(ii * self.num_pes)
        # free-PE bitmask per modulo slot (bit p set == PE p free)
        self.free_mask: list[int] = [(1 << self.num_pes) - 1] * ii
        # lazily interned bus segments: pe_id -> segment index
        self._bus_of_pe: list[int] = [_UNKNOWN_BUS] * self.num_pes
        self._bus_segments: dict[Hashable, int] = {}
        # use count per (segment, modulo slot), flat [seg * ii + slot]
        self._bus_use: list[int] = []
        self._bus_cap = cgra.mem_ports_per_row
        # None on homogeneous fabrics (no per-claim capability check at all)
        self._mem_mask = cgra.class_mask(OpClass.MEM)

    # -- id plumbing ---------------------------------------------------------------

    def _bus_id(self, pe_id: int) -> int:
        """Interned bus-segment index of *pe_id* (calls ``bus_key`` once
        per PE, ever — including its error behaviour for rejected PEs)."""
        b = self._bus_of_pe[pe_id]
        if b == _UNKNOWN_BUS:
            key = self.bus_key(self.cgra.grid_index.coords[pe_id])
            b = self._bus_segments.get(key, -1)
            if b < 0:
                b = len(self._bus_segments)
                self._bus_segments[key] = b
                self._bus_use.extend([0] * self.ii)
            self._bus_of_pe[pe_id] = b
        return b

    # -- queries (Coord API) -------------------------------------------------------

    def slot_free(self, pe: Coord, time: int) -> bool:
        return self._occ[(time % self.ii) * self.num_pes + self.cgra.grid_index.id_of[pe]] is None

    def bus_free(self, pe: Coord, time: int) -> bool:
        """Can a memory op on *pe* use its bus segment at this modulo slot?"""
        return self.bus_free_id(self.cgra.grid_index.id_of[pe], time)

    def free_slots_at(self, time: int) -> int:
        return self.free_mask[time % self.ii].bit_count()

    # -- queries (integer fast path) -----------------------------------------------

    def slot_free_id(self, pe_id: int, time: int) -> bool:
        return self._occ[(time % self.ii) * self.num_pes + pe_id] is None

    def bus_free_id(self, pe_id: int, time: int) -> bool:
        used = self._bus_use[self._bus_id(pe_id) * self.ii + time % self.ii]
        return used < self._bus_cap

    # -- mutation ------------------------------------------------------------------

    def claim(self, pe: Coord, time: int, label: str, *, memory: bool = False) -> None:
        self.claim_id(self.cgra.grid_index.id_of[pe], time, label, memory=memory)

    def claim_id(
        self, pe_id: int, time: int, label: str, *, memory: bool = False
    ) -> None:
        m = time % self.ii
        idx = m * self.num_pes + pe_id
        old = self._occ[idx]
        if old is not None:
            pe = self.cgra.grid_index.coords[pe_id]
            raise MappingError(
                f"slot ({pe}, mod {m}) already claimed by {old}, "
                f"cannot add {label}"
            )
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
                    f"bus segment {self.bus_key(pe)} full at modulo slot {m}"
                )
            self._bus_use[b * self.ii + m] += 1
        self._occ[idx] = label
        self._occ_mask[idx] = 1
        self.free_mask[m] ^= 1 << pe_id

    def release(self, pe: Coord, time: int, *, memory: bool = False) -> None:
        self.release_id(self.cgra.grid_index.id_of[pe], time, memory=memory)

    def release_id(self, pe_id: int, time: int, *, memory: bool = False) -> None:
        m = time % self.ii
        idx = m * self.num_pes + pe_id
        if self._occ[idx] is None:
            pe = self.cgra.grid_index.coords[pe_id]
            raise MappingError(f"slot ({pe}, mod {m}) not claimed")
        self._occ[idx] = None
        self._occ_mask[idx] = 0
        self.free_mask[m] ^= 1 << pe_id
        if memory:
            b = self._bus_id(pe_id)
            if self._bus_use[b * self.ii + m] <= 0:
                pe = self.cgra.grid_index.coords[pe_id]
                raise MappingError(
                    f"bus release underflow at {(self.bus_key(pe), m)}"
                )
            self._bus_use[b * self.ii + m] -= 1

    def copy(self) -> "ReservationTable":
        dup = ReservationTable.__new__(ReservationTable)
        dup.cgra = self.cgra
        dup.ii = self.ii
        dup.bus_key = self.bus_key
        dup.num_pes = self.num_pes
        dup._occ = self._occ.copy()
        dup._occ_mask = self._occ_mask.copy()
        dup.free_mask = self.free_mask.copy()
        dup._bus_of_pe = self._bus_of_pe.copy()
        dup._bus_segments = dict(self._bus_segments)
        dup._bus_use = self._bus_use.copy()
        dup._bus_cap = self._bus_cap
        dup._mem_mask = self._mem_mask
        return dup

    @property
    def occupancy(self) -> int:
        return sum(self._occ_mask)
