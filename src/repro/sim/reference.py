"""Reference DFG interpreter — the functional golden model.

Executes a loop-body DFG for a given trip count directly on named lists of
ints, independent of any mapping or architecture.  Every mapped execution
(original, constrained, or PageMaster-transformed) must produce byte-equal
array contents.
"""

from __future__ import annotations

from repro.arch.isa import Opcode, evaluate, wrap32
from repro.dfg.analysis import dataflow_dag
from repro.dfg.graph import DFG, MemRef
from repro.util.errors import SimulationError

__all__ = ["run_reference"]


def _resolve(ref: MemRef, iteration: int, arrays: dict[str, list[int]]) -> tuple:
    try:
        arr = arrays[ref.array]
    except KeyError:
        raise SimulationError(f"kernel references unbound array {ref.array!r}")
    idx = ref.offset + ref.stride * iteration
    if ref.ring is not None:
        idx %= ref.ring
    if not 0 <= idx < len(arr):
        raise SimulationError(
            f"array {ref.array!r} index {idx} out of bounds "
            f"[0,{len(arr)}) at iteration {iteration}"
        )
    return arr, idx


def run_reference(
    dfg: DFG, arrays: dict[str, list[int]], trip: int
) -> dict[str, list[int]]:
    """Run *dfg* for *trip* iterations over *arrays* (mutated in place for
    stores; also returned for convenience).

    Loop-carried operands take the edge's ``init`` values for the first
    ``distance`` iterations, then the producer's value from ``distance``
    iterations back.
    """
    if trip < 0:
        raise SimulationError(f"trip count must be >= 0, got {trip}")
    # its order is also the order of memory ops that no edge relates
    _, topo = dataflow_dag(dfg)

    max_dist = max((e.distance for e in dfg.edges.values()), default=0)
    history: dict[int, list[int]] = {v: [] for v in dfg.ops}  # recent values

    for i in range(trip):
        values: dict[int, int] = {}
        for v in topo:
            op = dfg.ops[v]
            operands: list[int] = []
            for e in dfg.in_edges(v):
                if e.distance == 0:
                    operands.append(values[e.src])
                elif i < e.distance:
                    operands.append(wrap32(e.init[i]))
                else:
                    operands.append(history[e.src][-e.distance])
            if op.opcode is Opcode.LOAD:
                arr, idx = _resolve(op.memref, i, arrays)
                values[v] = wrap32(arr[idx])
            elif op.opcode is Opcode.LOADT:
                # ordered load: the token operand only sequences it
                arr, idx = _resolve(op.memref, i, arrays)
                values[v] = wrap32(arr[idx])
            elif op.opcode is Opcode.STORE:
                arr, idx = _resolve(op.memref, i, arrays)
                arr[idx] = operands[0]
                values[v] = operands[0]
            else:
                values[v] = evaluate(op.opcode, operands, op.immediate)
        for v in topo:
            h = history[v]
            h.append(values[v])
            if len(h) > max_dist + 1:
                del h[0]
    return arrays
