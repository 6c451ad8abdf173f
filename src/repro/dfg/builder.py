"""Fluent builder for loop-body dataflow graphs.

Kernels are written as straight-line code over value handles::

    b = DFGBuilder("laplace")
    left = b.load("in", offset=-1)
    mid = b.load("in")
    right = b.load("in", offset=1)
    two = b.const(2)
    out = b.sub(b.add(left, right), b.mul(mid, two))
    b.store("out", out)
    dfg = b.build()

Loop-carried values (recurrences) use :meth:`placeholder` /
:meth:`bind_carry`::

    prev = b.placeholder("prev_out")          # out[i-1]
    cur = b.shr(b.add(prev, b.load("in")), b.const(1))
    b.store("out", cur)
    b.bind_carry(prev, cur, distance=1, init=(0,))
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.isa import OPCODE_INFO, Opcode
from repro.dfg.graph import DFG, MemRef, Op
from repro.dfg.validate import validate_dfg
from repro.util.errors import GraphError

__all__ = ["DFGBuilder", "Value"]


@dataclass(frozen=True)
class Value:
    """Handle to the result of an op (or to a placeholder awaiting a carry)."""

    op_id: int
    placeholder: bool = False


class DFGBuilder:
    """Incrementally builds a :class:`~repro.dfg.graph.DFG`."""

    def __init__(self, name: str = "kernel") -> None:
        self._dfg = DFG(name=name)
        self._pending: dict[int, list[tuple[int, int]]] = {}  # ph op -> uses
        self._bound: set[int] = set()

    # -- leaves --------------------------------------------------------------------

    def const(self, value: int, name: str = "") -> Value:
        op = self._dfg.add_op(Opcode.CONST, immediate=value, name=name or f"c{value}")
        return Value(op.id)

    def load(
        self,
        array: str,
        *,
        stride: int = 1,
        offset: int = 0,
        ring: int | None = None,
        name: str = "",
    ) -> Value:
        ref = MemRef(array, stride=stride, offset=offset, ring=ring)
        op = self._dfg.add_op(
            Opcode.LOAD, memref=ref, name=name or f"ld_{array}@{offset:+d}"
        )
        return Value(op.id)

    def placeholder(self, name: str = "carry") -> Value:
        """A value defined later by :meth:`bind_carry` (a recurrence input).

        Implemented as a ROUTE op whose input edge is added at bind time, so
        placeholders are real schedulable ops (they model the register/route
        step a recurrence needs anyway)."""
        op = self._dfg.add_op(Opcode.ROUTE, name=name)
        self._pending[op.id] = []
        return Value(op.id, placeholder=True)

    # -- operations ------------------------------------------------------------------

    def op(self, opcode: Opcode, *args: Value, name: str = "", immediate: int | None = None) -> Value:
        info = OPCODE_INFO[opcode]
        if len(args) != info.arity:
            raise GraphError(
                f"{opcode.value} takes {info.arity} operands, got {len(args)}"
            )
        node = self._dfg.add_op(opcode, name=name or opcode.value, immediate=immediate)
        for idx, v in enumerate(args):
            self._connect(v, node, idx)
        return Value(node.id)

    def _connect(self, v: Value, dst: Op, operand_index: int) -> None:
        self._dfg.add_edge(v.op_id, dst.id, operand_index)

    # arithmetic sugar ---------------------------------------------------------------

    def add(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.ADD, a, b, name=name)

    def sub(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.SUB, a, b, name=name)

    def mul(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.MUL, a, b, name=name)

    def shl(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.SHL, a, b, name=name)

    def shr(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.SHR, a, b, name=name)

    def min(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.MIN, a, b, name=name)

    def max(self, a: Value, b: Value, name: str = "") -> Value:
        return self.op(Opcode.MAX, a, b, name=name)

    def abs(self, a: Value, name: str = "") -> Value:
        return self.op(Opcode.ABS, a, name=name)

    def neg(self, a: Value, name: str = "") -> Value:
        return self.op(Opcode.NEG, a, name=name)

    def route(self, a: Value, name: str = "") -> Value:
        return self.op(Opcode.ROUTE, a, name=name)

    def select(self, cond: Value, if_true: Value, if_false: Value, name: str = "") -> Value:
        return self.op(Opcode.SELECT, cond, if_true, if_false, name=name)

    def clamp(self, v: Value, lo: int, hi: int) -> Value:
        """min(max(v, lo), hi) — the saturating clip common in media kernels."""
        return self.min(self.max(v, self.const(lo)), self.const(hi))

    # memory / recurrences ---------------------------------------------------------------

    def store(
        self,
        array: str,
        value: Value,
        *,
        stride: int = 1,
        offset: int = 0,
        ring: int | None = None,
        name: str = "",
    ) -> Value:
        ref = MemRef(array, stride=stride, offset=offset, ring=ring)
        node = self._dfg.add_op(
            Opcode.STORE, memref=ref, name=name or f"st_{array}@{offset:+d}"
        )
        self._connect(value, node, 0)
        return Value(node.id)

    def bind_carry(
        self, ph: Value, producer: Value, *, distance: int = 1, init: tuple[int, ...] = ()
    ) -> None:
        """Close a recurrence: the placeholder's value at iteration *i* is
        *producer*'s value at iteration ``i - distance``; ``init`` seeds the
        first ``distance`` iterations (defaults to zeros)."""
        if not ph.placeholder:
            raise GraphError("bind_carry target must be a placeholder value")
        if ph.op_id in self._bound:
            raise GraphError(f"placeholder op {ph.op_id} already bound")
        if distance < 1:
            raise GraphError(f"carry distance must be >= 1, got {distance}")
        if not init:
            init = (0,) * distance
        self._dfg.add_edge(producer.op_id, ph.op_id, 0, distance=distance, init=init)
        self._bound.add(ph.op_id)
        del self._pending[ph.op_id]

    # -- finalisation -----------------------------------------------------------------

    def build(self) -> DFG:
        if self._pending:
            raise GraphError(
                f"unbound placeholders: {sorted(self._pending)} — call bind_carry"
            )
        validate_dfg(self._dfg)
        return self._dfg
