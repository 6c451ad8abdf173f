"""Top-level CGRA architecture description.

Bundles the pieces of Fig. 1 into one frozen description value that the
compiler, the paging layer and the simulators all consume: grid size (a
plain 4-neighbour mesh), rotating-register-file depth, and the per-row
data-bus memory port model (§III: "a shared data bus for each row of the
CGRA").  The tables derived from the fabric alone (grid index,
fingerprint, page layouts) are built on first use and kept on the object,
so the shared presets of :mod:`repro.arch.presets` build each of them once
per process.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.arch.capability import CapabilityMap, OpClass
from repro.arch.interconnect import Coord, GridIndex
from repro.util.errors import ArchitectureError
from repro.util.fingerprint import canonical_fingerprint

__all__ = ["CGRA"]


@dataclass(frozen=True)
class CGRA:
    """A coarse-grained reconfigurable array.

    Parameters
    ----------
    rows, cols:
        Grid dimensions (the paper evaluates 4x4, 6x6 and 8x8).
    rf_depth:
        Rotating registers per PE.  The paper's architecture-support
        requirement (§VI-E) is *N* registers, N = number of pages, so a
        whole-array schedule can always be folded onto one page; callers
        building paged systems should size this accordingly.
    mem_ports_per_row:
        How many memory operations one row's data bus can serve per cycle.
    capability:
        Optional per-PE op-class masks (:class:`~repro.arch.capability.
        CapabilityMap`).  ``None`` means the homogeneous fabric of the
        paper; a homogeneous map is normalized to ``None`` so the two
        spellings are indistinguishable (same fingerprint, same code
        paths).
    """

    rows: int
    cols: int
    rf_depth: int = 8
    mem_ports_per_row: int = 1
    capability: CapabilityMap | None = None

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ArchitectureError(f"bad grid {self.rows}x{self.cols}")
        if self.rf_depth <= 0:
            raise ArchitectureError(f"rf_depth must be >= 1, got {self.rf_depth}")
        if self.mem_ports_per_row <= 0:
            raise ArchitectureError(
                f"mem_ports_per_row must be >= 1, got {self.mem_ports_per_row}"
            )
        if self.capability is not None:
            if (self.capability.rows, self.capability.cols) != (self.rows, self.cols):
                raise ArchitectureError(
                    f"capability map is {self.capability.rows}x"
                    f"{self.capability.cols}, fabric is {self.rows}x{self.cols}"
                )
            if self.capability.is_homogeneous:
                object.__setattr__(self, "capability", None)

    # -- convenience passthroughs ------------------------------------------------

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @cached_property
    def grid_index(self) -> GridIndex:
        """Precomputed integer view of the mesh (Coord<->id tables, int
        adjacency, the all-pairs distance matrix), built on first use — the
        compiler's hot paths run on this instead of hashing ``Coord``
        objects."""
        return GridIndex(self.rows, self.cols)

    @cached_property
    def layouts(self) -> dict:
        """This fabric's standard page layouts by page size, filled by
        :func:`repro.pipeline.compile.make_layout`: a layout belongs to one
        fabric object, so it is kept on that object."""
        return {}

    def coords(self) -> tuple[Coord, ...]:
        """All PE coordinates in row-major order."""
        return self.grid_index.coords

    def neighbors(self, c: Coord) -> tuple[Coord, ...]:
        """Neighbouring PEs of *c* (not including *c* itself)."""
        gi = self.grid_index
        pe_id = gi.id_of.get(c)
        if pe_id is None:
            raise ArchitectureError(f"{c} outside {self.rows}x{self.cols} grid")
        return tuple(gi.coords[n] for n in gi.neighbor_ids[pe_id])

    def adjacent_or_same(self, a: Coord, b: Coord) -> bool:
        """True if *b*'s output register is readable by *a* (1-hop model:
        a PE reads itself and its mesh neighbours)."""
        gi = self.grid_index
        return gi.manhattan[gi.id_of[a]][gi.id_of[b]] <= 1

    # -- capabilities ------------------------------------------------------------

    def supports_id(self, cls_: OpClass, pe_id: int) -> bool:
        """Whether the PE with row-major id *pe_id* supports *cls_*."""
        if self.capability is None:
            return True
        return self.capability.supports_id(cls_, pe_id)

    def class_mask(self, cls_: OpClass) -> tuple[bool, ...] | None:
        """Row-major support mask for *cls_*; ``None`` means every PE
        supports it (the compiler's filters become no-ops)."""
        if self.capability is None:
            return None
        return self.capability.mask(cls_)

    def fingerprint(self) -> str:
        """Canonical structural hash of the architecture description.

        Covers every parameter that can change what the compiler produces
        (grid, register depth, memory ports, and any capability
        restriction), so two CGRA objects fingerprint equal iff a mapping
        for one is valid for the other.  Used as a cache-key component by
        :mod:`repro.pipeline`.  The capability key is emitted only for
        heterogeneous fabrics: the homogeneous default hashes the exact
        payload it always has, keeping every previously committed artifact
        address unchanged.  Computed once per object.
        """
        return self._fingerprint

    @cached_property
    def _fingerprint(self) -> str:
        payload = {
            "rows": self.rows,
            "cols": self.cols,
            "rf_depth": self.rf_depth,
            "mem_ports_per_row": self.mem_ports_per_row,
            # constants: the fabric is always the plain mesh, but every
            # committed artifact address hashes these two keys
            "diagonal": False,
            "torus": False,
        }
        if self.capability is not None:
            payload["capability"] = self.capability.spec()
        return canonical_fingerprint(payload)

    def describe(self) -> str:
        cap = (
            f", capability: {self.capability.describe()}"
            if self.capability is not None
            else ""
        )
        return (
            f"{self.rows}x{self.cols} CGRA "
            f"(rf_depth={self.rf_depth}, "
            f"mem_ports/row={self.mem_ports_per_row}, "
            f"4-neighbour mesh{cap})"
        )
