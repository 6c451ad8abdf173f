"""Dataflow graph model.

A :class:`DFG` is the compiler's view of one innermost loop body (Fig. 2):
operations (:class:`Op`) connected by data-dependency edges (:class:`Edge`).
Edges carry an *iteration distance*: distance 0 is an intra-iteration
dependency, distance ``d > 0`` means the consumer reads the value the
producer computed ``d`` iterations earlier (a loop-carried dependency, the
recurrence cycles of Fig. 3).  Loop-carried edges also carry the initial
values consumed by the first ``d`` iterations.

Memory operations reference arrays symbolically through :class:`MemRef`;
binding to concrete base addresses happens when a kernel is loaded into a
:class:`~repro.arch.memory.DataMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, TypeVar

from repro.arch.isa import OPCODE_INFO, Opcode
from repro.util.errors import GraphError
from repro.util.fingerprint import canonical_fingerprint

T = TypeVar("T")

__all__ = ["MemRef", "Op", "Edge", "DFG"]


@dataclass(frozen=True)
class MemRef:
    """Symbolic affine memory reference: element ``offset + stride * i`` of
    ``array`` at kernel iteration ``i`` (optionally modulo ``ring``)."""

    array: str
    stride: int = 1
    offset: int = 0
    ring: int | None = None


@dataclass(frozen=True)
class Op:
    """One micro-operation of the loop body."""

    id: int
    opcode: Opcode
    name: str = ""
    immediate: int | None = None
    memref: MemRef | None = None

    def __post_init__(self) -> None:
        info = OPCODE_INFO[self.opcode]
        if info.is_memory and self.memref is None:
            raise GraphError(f"op {self.id} ({self.opcode.value}) needs a memref")
        if not info.is_memory and self.memref is not None:
            raise GraphError(f"op {self.id} ({self.opcode.value}) cannot take a memref")
        if self.opcode is Opcode.CONST and self.immediate is None:
            raise GraphError(f"op {self.id}: CONST needs an immediate")

    @property
    def is_memory(self) -> bool:
        return OPCODE_INFO[self.opcode].is_memory

    @property
    def produces_value(self) -> bool:
        return OPCODE_INFO[self.opcode].produces_value

    @property
    def label(self) -> str:
        return self.name or f"op{self.id}"


@dataclass(frozen=True)
class Edge:
    """Data dependency: operand ``operand_index`` of ``dst`` is the value of
    ``src``, ``distance`` iterations back.  ``init`` supplies the values for
    the first ``distance`` iterations (``init[k]`` feeds iteration ``k``)."""

    id: int
    src: int
    dst: int
    operand_index: int
    distance: int = 0
    init: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise GraphError(f"edge {self.id}: negative distance {self.distance}")
        if len(self.init) != self.distance:
            raise GraphError(
                f"edge {self.id}: distance {self.distance} requires "
                f"{self.distance} initial values, got {len(self.init)}"
            )


@dataclass
class DFG:
    """A loop-body dataflow graph."""

    name: str = "kernel"
    ops: dict[int, Op] = field(default_factory=dict)
    edges: dict[int, Edge] = field(default_factory=dict)
    _next_op: int = 0
    _next_edge: int = 0
    # lazily-built per-op (in_edges, out_edges) tables; dropped on mutation
    _adj: tuple[dict, dict] | None = field(
        default=None, repr=False, compare=False
    )
    # (adjacency epoch, {builder: table}) of :meth:`derived`
    _derived: tuple[tuple, dict] | None = field(
        default=None, repr=False, compare=False
    )

    # -- construction -------------------------------------------------------------

    def add_op(
        self,
        opcode: Opcode,
        *,
        name: str = "",
        immediate: int | None = None,
        memref: MemRef | None = None,
    ) -> Op:
        op = Op(self._next_op, opcode, name=name, immediate=immediate, memref=memref)
        self.ops[op.id] = op
        self._next_op += 1
        self._adj = None
        return op

    def add_edge(
        self,
        src: Op | int,
        dst: Op | int,
        operand_index: int,
        *,
        distance: int = 0,
        init: tuple[int, ...] = (),
    ) -> Edge:
        s = src.id if isinstance(src, Op) else src
        d = dst.id if isinstance(dst, Op) else dst
        if s not in self.ops:
            raise GraphError(f"edge source op {s} not in graph")
        if d not in self.ops:
            raise GraphError(f"edge destination op {d} not in graph")
        if s == d:
            raise GraphError(
                f"op {s} cannot feed itself: a recurrence enters a placeholder "
                f"op through a loop-carried edge (DFGBuilder.bind_carry)"
            )
        if not self.ops[s].produces_value:
            raise GraphError(f"op {s} ({self.ops[s].opcode.value}) produces no value")
        arity = OPCODE_INFO[self.ops[d].opcode].arity
        if not 0 <= operand_index < arity:
            raise GraphError(
                f"operand index {operand_index} out of range for "
                f"{self.ops[d].opcode.value} (arity {arity})"
            )
        for e in self.edges.values():
            if e.dst == d and e.operand_index == operand_index:
                raise GraphError(
                    f"operand {operand_index} of op {d} already driven by edge {e.id}"
                )
        edge = Edge(self._next_edge, s, d, operand_index, distance, tuple(init))
        self.edges[edge.id] = edge
        self._next_edge += 1
        self._adj = None
        return edge

    # -- queries --------------------------------------------------------------------

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_memory_ops(self) -> int:
        return sum(1 for op in self.ops.values() if op.is_memory)

    def _adjacency(self) -> tuple[dict, dict]:
        """Per-op edge tables.  ``in`` lists are ordered exactly like the
        historical scan (stable sort by operand index, edge id breaking
        ties); ``out`` lists are in ascending edge id.  The mapper hits
        these accessors millions of times per ladder, so the O(E) scan per
        call is replaced by one O(E) build per graph mutation epoch."""
        adj = self._adj
        if adj is None:
            ins: dict[int, list[Edge]] = {v: [] for v in self.ops}
            outs: dict[int, list[Edge]] = {v: [] for v in self.ops}
            for e in self.edges.values():
                ins[e.dst].append(e)
                outs[e.src].append(e)
            adj = (
                {
                    v: tuple(sorted(lst, key=lambda e: e.operand_index))
                    for v, lst in ins.items()
                },
                {v: tuple(lst) for v, lst in outs.items()},
            )
            self._adj = adj
        return adj

    def derived(self, build: Callable[["DFG"], T]) -> T:
        """``build(self)``, built once per adjacency epoch and kept on the
        graph: the tables that the analyses and the mapper derive from the
        graph alone (RecMII, ASAP times, op orders), shared by every
        ladder of a job instead of rebuilt per ladder.  *build* is the key,
        so it must be a pure function of the graph; a mutation starts a new
        epoch, and with it an empty table."""
        adj = self._adjacency()
        memo = self._derived
        if memo is None or memo[0] is not adj:
            memo = self._derived = (adj, {})
        tables = memo[1]
        table = tables.get(build)
        if table is None:
            table = tables.setdefault(build, build(self))
        return table

    def in_edges(self, op: Op | int) -> tuple[Edge, ...]:
        """Incoming edges of *op*, sorted by operand index."""
        d = op.id if isinstance(op, Op) else op
        return self._adjacency()[0][d]

    def out_edges(self, op: Op | int) -> tuple[Edge, ...]:
        s = op.id if isinstance(op, Op) else op
        return self._adjacency()[1][s]

    def copy(self, name: str | None = None) -> "DFG":
        return DFG(
            name=name or self.name,
            ops=dict(self.ops),
            edges=dict(self.edges),
            _next_op=self._next_op,
            _next_edge=self._next_edge,
        )

    def fingerprint(self) -> str:
        """Canonical structural hash of the graph.

        Stable across processes and independent of object identity, dict
        insertion order, edge-id numbering, and cosmetic op/graph names —
        two DFGs fingerprint equal iff the compiler would treat them the
        same.  Any semantic mutation (op added, opcode/immediate/memref
        changed, edge rewired, distance or init values changed) changes the
        fingerprint, which is what makes it safe as a cache key in
        :mod:`repro.pipeline`.
        """
        ops = [
            [
                op.id,
                op.opcode.value,
                op.immediate,
                [op.memref.array, op.memref.stride, op.memref.offset, op.memref.ring]
                if op.memref is not None
                else None,
            ]
            for op in sorted(self.ops.values(), key=lambda o: o.id)
        ]
        edges = [
            [e.src, e.dst, e.operand_index, e.distance, list(e.init)]
            for e in sorted(
                self.edges.values(),
                key=lambda e: (e.dst, e.operand_index, e.src, e.distance),
            )
        ]
        return canonical_fingerprint({"ops": ops, "edges": edges})

    def summary(self) -> str:
        return (
            f"DFG {self.name!r}: {self.num_ops} ops "
            f"({self.num_memory_ops} memory), {self.num_edges} edges, "
            f"{sum(1 for e in self.edges.values() if e.distance > 0)} loop-carried"
        )
