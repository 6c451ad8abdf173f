"""Operation set of a CGRA processing element.

Each PE executes one operation per cycle (Fig. 1 of the paper): an
arithmetic/logic operation, a shift, a select, a memory access, or a pure
route (copy) used to move a neighbour's value through the PE.  All
operations have single-cycle latency, the standard assumption of the
modulo-scheduling CGRA literature the paper builds on (DRESC, EMS).

Values are modelled as Python integers wrapped to 32-bit two's complement,
so kernel semantics are exact and platform independent.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro.util.errors import SimulationError

__all__ = [
    "Opcode",
    "OpInfo",
    "OPCODE_INFO",
    "ALU_BY_VALUE",
    "evaluate",
    "is_memory_op",
    "wrap32",
]

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x80000000


def wrap32(value: int) -> int:
    """Wrap an integer to signed 32-bit two's complement."""
    v = value & _MASK32
    return v - (1 << 32) if v & _SIGN32 else v


class Opcode(enum.Enum):
    """Micro-operations a PE can perform in one cycle."""

    # value producers without data operands
    CONST = "const"   # emit an immediate
    LOAD = "load"     # read data memory at an affine address

    # single-operand
    ROUTE = "route"   # copy the operand (routing PE behaviour, §II)
    NEG = "neg"
    NOT = "not"
    ABS = "abs"

    # two-operand arithmetic / logic
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"       # truncating signed division, div-by-zero -> 0
    MOD = "mod"
    SHL = "shl"
    SHR = "shr"       # arithmetic shift right
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"
    MAX = "max"
    LT = "lt"         # comparisons produce 0/1
    LE = "le"
    EQ = "eq"
    NE = "ne"

    # three-operand
    SELECT = "select"  # operand0 ? operand1 : operand2

    # memory write: operand0 is the stored value (passed through as the
    # result, so ordering edges can hang off a store)
    STORE = "store"
    # load ordered after a token operand (ignored): the spill pattern's
    # "read the buffer only after this iteration's store committed"
    LOADT = "loadt"


@dataclass(frozen=True)
class OpInfo:
    """Static properties of an opcode."""

    arity: int
    is_memory: bool
    produces_value: bool
    commutative: bool = False


OPCODE_INFO: dict[Opcode, OpInfo] = {
    Opcode.CONST: OpInfo(0, False, True),
    Opcode.LOAD: OpInfo(0, True, True),
    Opcode.ROUTE: OpInfo(1, False, True),
    Opcode.NEG: OpInfo(1, False, True),
    Opcode.NOT: OpInfo(1, False, True),
    Opcode.ABS: OpInfo(1, False, True),
    Opcode.ADD: OpInfo(2, False, True, commutative=True),
    Opcode.SUB: OpInfo(2, False, True),
    Opcode.MUL: OpInfo(2, False, True, commutative=True),
    Opcode.DIV: OpInfo(2, False, True),
    Opcode.MOD: OpInfo(2, False, True),
    Opcode.SHL: OpInfo(2, False, True),
    Opcode.SHR: OpInfo(2, False, True),
    Opcode.AND: OpInfo(2, False, True, commutative=True),
    Opcode.OR: OpInfo(2, False, True, commutative=True),
    Opcode.XOR: OpInfo(2, False, True, commutative=True),
    Opcode.MIN: OpInfo(2, False, True, commutative=True),
    Opcode.MAX: OpInfo(2, False, True, commutative=True),
    Opcode.LT: OpInfo(2, False, True),
    Opcode.LE: OpInfo(2, False, True),
    Opcode.EQ: OpInfo(2, False, True, commutative=True),
    Opcode.NE: OpInfo(2, False, True, commutative=True),
    Opcode.SELECT: OpInfo(3, False, True),
    Opcode.STORE: OpInfo(1, True, True),
    Opcode.LOADT: OpInfo(1, True, True),
}


def is_memory_op(op: Opcode) -> bool:
    """True for operations that use the row data bus (LOAD/STORE)."""
    return OPCODE_INFO[op].is_memory


def _div(a: int, b: int) -> int:
    """Truncating signed division; division by zero yields 0."""
    if b == 0:
        return 0
    q = abs(a) // abs(b)
    return wrap32(-q if (a < 0) != (b < 0) else q)


def _mod(a: int, b: int) -> int:
    """Remainder with the sign of the dividend; modulo zero yields 0."""
    if b == 0:
        return 0
    r = abs(a) % abs(b)
    return wrap32(-r if a < 0 else r)


#: What each ALU opcode computes from its operands (CONST and the memory
#: opcodes are not here: they take no ALU path).
_ALU: dict[Opcode, Callable[..., int]] = {
    Opcode.ROUTE: wrap32,
    Opcode.NEG: lambda a: wrap32(-a),
    Opcode.NOT: lambda a: wrap32(~a),
    Opcode.ABS: lambda a: wrap32(abs(a)),
    Opcode.ADD: lambda a, b: wrap32(a + b),
    Opcode.SUB: lambda a, b: wrap32(a - b),
    Opcode.MUL: lambda a, b: wrap32(a * b),
    Opcode.DIV: _div,
    Opcode.MOD: _mod,
    Opcode.SHL: lambda a, b: wrap32(a << (b & 31)),
    Opcode.SHR: lambda a, b: wrap32(a >> (b & 31)),
    Opcode.AND: lambda a, b: wrap32(a & b),
    Opcode.OR: lambda a, b: wrap32(a | b),
    Opcode.XOR: lambda a, b: wrap32(a ^ b),
    Opcode.MIN: lambda a, b: wrap32(min(a, b)),
    Opcode.MAX: lambda a, b: wrap32(max(a, b)),
    Opcode.LT: lambda a, b: int(a < b),
    Opcode.LE: lambda a, b: int(a <= b),
    Opcode.EQ: lambda a, b: int(a == b),
    Opcode.NE: lambda a, b: int(a != b),
    Opcode.SELECT: lambda a, b, c: wrap32(b if a else c),
}

#: The ALU functions keyed by ``(opcode value, operand count)``: only the
#: well-formed calls are here, and the key hashes a str and an int in C
#: where an :class:`Opcode` key would run ``Enum.__hash__`` in Python.
ALU_BY_VALUE: dict[tuple[str, int], Callable[..., int]] = {
    (op.value, OPCODE_INFO[op].arity): fn for op, fn in _ALU.items()
}


def evaluate(op: Opcode, operands: list[int], immediate: int | None = None) -> int:
    """Evaluate *op* on integer *operands*, returning a wrapped 32-bit value.

    ``CONST`` returns *immediate*.  Memory operations are handled by the
    simulator, not here (they need the data memory), and raise if evaluated.
    """
    info = OPCODE_INFO[op]
    if info.is_memory:
        raise SimulationError(f"{op} must be executed by the memory system")
    if len(operands) != info.arity:
        raise SimulationError(
            f"{op.value} expects {info.arity} operands, got {len(operands)}"
        )
    if op is Opcode.CONST:
        if immediate is None:
            raise SimulationError("CONST requires an immediate")
        return wrap32(immediate)
    return _ALU[op](*operands)
