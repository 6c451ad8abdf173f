"""Random loop-kernel generation.

Produces structurally valid, executable DFGs for differential testing: the
fuzz suite maps random kernels with both compilers, simulates them
cycle-accurately (before and after PageMaster shrinking), and requires
bit-exact agreement with the reference interpreter.  Also handy for
stress-testing mappers beyond the 11-kernel suite.
"""

from __future__ import annotations

from repro.arch.isa import Opcode
from repro.dfg.builder import DFGBuilder, Value
from repro.dfg.graph import DFG
from repro.util.errors import GraphError
from repro.util.rng import PCG64Stream

__all__ = ["random_dfg", "random_arrays"]

_BINARY = [
    Opcode.ADD,
    Opcode.SUB,
    Opcode.MUL,
    Opcode.AND,
    Opcode.OR,
    Opcode.XOR,
    Opcode.MIN,
    Opcode.MAX,
]
_UNARY = [Opcode.NEG, Opcode.ABS, Opcode.NOT]
_SHIFT = [Opcode.SHL, Opcode.SHR]


def random_dfg(
    seed: int,
    *,
    n_ops: int = 10,
    n_inputs: int = 2,
    n_outputs: int = 1,
    recurrence_prob: float = 0.4,
    max_offset: int = 2,
) -> DFG:
    """Build a random kernel with ~*n_ops* compute ops.

    Inputs are streamed from arrays ``in0..``, outputs stored to
    ``out0..`` (one array per store so random kernels never double-store).
    With probability *recurrence_prob* one loop-carried cycle is threaded
    through the graph.
    """
    if n_ops < 1 or n_inputs < 1 or n_outputs < 1:
        raise GraphError("random_dfg needs at least one op, input and output")
    rng = PCG64Stream(seed)
    b = DFGBuilder(f"fuzz{seed}")
    values: list[Value] = []

    carry = None
    if rng.random() < recurrence_prob:
        carry = b.placeholder("carry")
        values.append(carry)

    for i in range(n_inputs):
        values.append(
            b.load(f"in{i}", offset=rng.integers(max_offset + 1))
        )

    def pick() -> Value:
        return values[rng.integers(len(values))]

    for _ in range(n_ops):
        roll = rng.random()
        if roll < 0.15:
            v = b.op(_UNARY[rng.integers(len(_UNARY))], pick())
        elif roll < 0.35:
            # shifts keep magnitudes bounded, which keeps recurrences from
            # wrapping ranges the goldens cannot reproduce cheaply
            amount = b.const(1 + rng.integers(3))
            v = b.op(_SHIFT[rng.integers(len(_SHIFT))], pick(), amount)
        elif roll < 0.45:
            v = b.add(pick(), b.const(rng.integers(128) - 64))
        else:
            op = _BINARY[rng.integers(len(_BINARY))]
            v = b.op(op, pick(), pick())
        values.append(v)

    if carry is not None:
        # close the recurrence on a value that (transitively) uses it, so
        # the cycle is real; shift keeps it numerically tame
        feed = b.shr(values[-1], b.const(1), name="carry_feed")
        dist = 1 + rng.integers(2)
        init = tuple(rng.int_list(-8, 8, dist))
        b.bind_carry(carry, feed, distance=dist, init=init)

    # stores read late values so most of the graph is live
    for i in range(n_outputs):
        b.store(f"out{i}", values[-(1 + i % min(3, len(values)))])
    return b.build()


def random_arrays(dfg: DFG, seed: int, trip: int) -> dict[str, list[int]]:
    """Input/output arrays sized for *trip* iterations of a random kernel."""
    rng = PCG64Stream(seed ^ 0xA5A5)
    arrays: dict[str, list[int]] = {}
    for op in dfg.ops.values():
        if op.memref is None:
            continue
        name = op.memref.array
        length = trip * abs(op.memref.stride or 1) + abs(op.memref.offset) + 2
        if op.opcode is Opcode.LOAD:
            if name not in arrays or len(arrays[name]) < length:
                arrays[name] = rng.int_list(-64, 64, length)
        else:
            arrays[name] = [0] * length
    return arrays
