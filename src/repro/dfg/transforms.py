"""Structural DFG transforms.

``unroll`` reproduces the paper's Fig. 3 experiment: unrolling a loop with a
recurrence does not beat the recurrence bound — the unrolled graph's RecMII
grows with the factor, keeping the *effective* II per original iteration
constant.
"""

from __future__ import annotations

from repro.dfg.graph import DFG, MemRef
from repro.util.errors import GraphError

__all__ = ["unroll"]


def unroll(dfg: DFG, factor: int) -> DFG:
    """Unroll the loop body *factor* times.

    Iteration ``i`` of the unrolled loop executes original iterations
    ``i*factor + k`` for ``k in 0..factor-1``.  Memory strides are scaled,
    offsets shifted per copy, and loop-carried distances redistributed:
    copy *k*'s consumer of a distance-*d* edge reads copy ``(k-d) mod
    factor`` at new distance ``-floor((k-d)/factor)``.
    """
    if factor < 1:
        raise GraphError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return dfg.copy()
    out = DFG(name=f"{dfg.name}_x{factor}")
    new_id: dict[tuple[int, int], int] = {}  # (orig op, copy) -> new op id
    for k in range(factor):
        for op in sorted(dfg.ops.values(), key=lambda o: o.id):
            memref = op.memref
            if memref is not None:
                if memref.ring is not None:
                    raise GraphError("unrolling modular memrefs is not supported")
                memref = MemRef(
                    memref.array,
                    stride=memref.stride * factor,
                    offset=memref.offset + memref.stride * k,
                )
            node = out.add_op(
                op.opcode,
                name=f"{op.label}#{k}",
                immediate=op.immediate,
                memref=memref,
            )
            new_id[(op.id, k)] = node.id
    for k in range(factor):
        for e in sorted(dfg.edges.values(), key=lambda e: e.id):
            src_copy = (k - e.distance) % factor
            new_dist = -((k - e.distance) // factor)
            init: tuple[int, ...] = ()
            if new_dist > 0:
                # unrolled iteration j, copy k corresponds to original
                # iteration j*factor + k; its initial values are the original
                # edge's init entries for those original iterations.
                init = tuple(
                    e.init[j * factor + k] if j * factor + k < len(e.init) else 0
                    for j in range(new_dist)
                )
            out.add_edge(
                new_id[(e.src, src_copy)],
                new_id[(e.dst, k)],
                e.operand_index,
                distance=new_dist,
                init=init,
            )
    return out

