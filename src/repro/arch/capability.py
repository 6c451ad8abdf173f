"""Per-PE capability model: which op classes each PE can execute.

The paper's fabric is homogeneous — every PE runs every opcode — but real
CGRAs are capability-asymmetric: commonly only some columns own a port
into the banked data memory, and cheap "router" PEs may lack a full ALU.
This module models that axis with three *op classes*:

``ALU``
    Every computing opcode that is not a memory access (arithmetic,
    logic, compare, select, const materialization).
``MEM``
    The memory opcodes (``LOAD``/``LOADT``/``STORE``); a PE needs a
    memory port to execute them.
``ROUTE``
    Holding or forwarding a value for one cycle (a route step).  Every
    compute-capable PE can also route, but the class is separate so a
    pure-router PE is expressible.

A :class:`CapabilityMap` assigns each PE (in row-major id order, matching
:class:`~repro.arch.interconnect.GridIndex`) the set of classes it supports.
The canonical encoding — used both by :meth:`CGRA.fingerprint
<repro.arch.cgra.CGRA.fingerprint>` and by the artifact serialization —
lists **only the classes that are restricted** (supported by a strict
subset of PEs), as sorted ``(class, [pe ids])`` pairs.  The homogeneous
fabric therefore encodes to *nothing at all*: a ``CGRA`` without a
capability map fingerprints exactly as before this model existed, which
is what keeps every previously committed artifact address byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from repro.arch.isa import Opcode, is_memory_op
from repro.util.errors import ArchitectureError

__all__ = ["OpClass", "op_class", "CapabilityMap", "ALL_CLASSES"]


class OpClass(Enum):
    """Coarse capability classes a PE may or may not support."""

    ALU = "alu"
    MEM = "mem"
    ROUTE = "route"


#: Every class, in canonical (enum-definition) order.
ALL_CLASSES: tuple[OpClass, ...] = tuple(OpClass)


def op_class(opcode: Opcode) -> OpClass:
    """The capability class an op with *opcode* requires of its PE."""
    if is_memory_op(opcode):
        return OpClass.MEM
    if opcode is Opcode.ROUTE:
        return OpClass.ROUTE
    return OpClass.ALU


@dataclass(frozen=True)
class CapabilityMap:
    """Immutable per-PE op-class masks for a ``rows`` x ``cols`` grid.

    ``classes`` is the canonical restricted-classes encoding: a sorted
    tuple of ``(class value, sorted tuple of supporting pe ids)`` pairs,
    one per class that is **not** supported by every PE.  PE ids are
    row-major (``id = row * cols + col``).  A class absent from
    ``classes`` is supported everywhere; a map whose ``classes`` is empty
    is homogeneous and equivalent to having no map at all.
    """

    rows: int
    cols: int
    classes: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ArchitectureError(
                f"capability grid must be at least 1x1, got {self.rows}x{self.cols}"
            )
        n = self.rows * self.cols
        valid = {c.value for c in OpClass}
        norm: list[tuple[str, tuple[int, ...]]] = []
        seen: set[str] = set()
        for name, ids in self.classes:
            if name not in valid:
                raise ArchitectureError(f"unknown op class {name!r}")
            if name in seen:
                raise ArchitectureError(f"op class {name!r} listed twice")
            seen.add(name)
            uniq = tuple(sorted(set(int(i) for i in ids)))
            if any(i < 0 or i >= n for i in uniq):
                raise ArchitectureError(
                    f"op class {name!r} names a PE id outside [0,{n})"
                )
            if len(uniq) == n:
                continue  # universal class: canonical form omits it
            norm.append((name, uniq))
        object.__setattr__(self, "classes", tuple(sorted(norm)))

    # -- constructors ---------------------------------------------------------------

    @classmethod
    def homogeneous(cls, rows: int, cols: int) -> "CapabilityMap":
        """Every PE supports every class (canonical empty encoding)."""
        return cls(rows, cols, ())

    @classmethod
    def mem_columns(
        cls, rows: int, cols: int, columns: Iterable[int]
    ) -> "CapabilityMap":
        """Memory ports only in *columns*; ALU/ROUTE everywhere.

        This is the first real heterogeneous configuration: fabrics whose
        memory interface runs down dedicated columns, as on the scaled
        8x8/16x16 presets (:mod:`repro.arch.presets`)."""
        cols_set = sorted(set(int(c) for c in columns))
        if not cols_set:
            raise ArchitectureError("mem_columns needs at least one column")
        if any(c < 0 or c >= cols for c in cols_set):
            raise ArchitectureError(
                f"mem column outside [0,{cols}): {cols_set}"
            )
        ids = tuple(
            r * cols + c for r in range(rows) for c in cols_set
        )
        return cls(rows, cols, ((OpClass.MEM.value, tuple(sorted(ids))),))

    # -- queries --------------------------------------------------------------------

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    @property
    def is_homogeneous(self) -> bool:
        return not self.classes

    def _ids_of(self, cls_: OpClass) -> tuple[int, ...] | None:
        for name, ids in self.classes:
            if name == cls_.value:
                return ids
        return None  # universal

    def supports_id(self, cls_: OpClass, pe_id: int) -> bool:
        ids = self._ids_of(cls_)
        return ids is None or pe_id in ids

    def mask(self, cls_: OpClass) -> tuple[bool, ...] | None:
        """Row-major boolean mask for *cls_*, or ``None`` if universal."""
        ids = self._ids_of(cls_)
        if ids is None:
            return None
        members = set(ids)
        return tuple(i in members for i in range(self.num_pes))

    def ids(self, cls_: OpClass) -> tuple[int, ...]:
        """Sorted PE ids supporting *cls_* (all ids if universal)."""
        found = self._ids_of(cls_)
        if found is None:
            return tuple(range(self.num_pes))
        return found

    def spec(self) -> list[list] | None:
        """Canonical JSON-able encoding, ``None`` when homogeneous."""
        if self.is_homogeneous:
            return None
        return [[name, list(ids)] for name, ids in self.classes]

    def describe(self) -> str:
        if self.is_homogeneous:
            return "homogeneous (all PEs support all op classes)"
        parts = [
            f"{name}: {len(ids)}/{self.num_pes} PEs" for name, ids in self.classes
        ]
        return "restricted " + ", ".join(parts)
