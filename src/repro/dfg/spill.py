"""Memory spilling for long-lived temporaries (§VI-B register-usage
constraint, explicit form).

The paper's first compile-time constraint: "the compiler must use memory to
store temporary variables that a PE may need", keeping the local register
files free for the runtime transformation.  In this codebase short-lived
values travel as per-cycle route slots; a value whose consumer is *far*
below its producer would otherwise burn a slot per cycle of its lifetime.
:func:`spill_long_edges` rewrites such edges to a store/load pair through a
compiler-reserved circular buffer (Fig. 1's "global storage area reserved
by the compiler in the Data Memory"):

    producer ──> STORE tmp[(i) mod ring] ...... LOAD tmp[(i) mod ring] ──> consumer

The transform is a plain DFG rewrite, so the reference interpreter, every
mapper and every simulator handle it with no special cases, and functional
equivalence is testable directly.  The ring length (:data:`SPILL_RING`)
bounds how many in-flight iterations share the buffer; it must cover the
edge's lifetime in iterations.
"""

from __future__ import annotations

from repro.dfg.analysis import asap_times
from repro.dfg.graph import DFG, MemRef
from repro.arch.isa import Opcode
from repro.util.errors import GraphError

__all__ = ["spill_long_edges", "spill_candidates", "TMP_ARRAY_PREFIX"]

TMP_ARRAY_PREFIX = "__tmp"
#: Words per spill buffer: iterations whose spilled value can be in flight.
SPILL_RING = 8


def spill_candidates(dfg: DFG, threshold: int) -> list[int]:
    """Edges whose producer-to-consumer ASAP span exceeds *threshold*
    levels (a structural proxy for route length before scheduling).

    Loop-carried and constant edges are never spilled: constants live in
    the configuration and recurrences must stay on the fabric to keep
    their II (a memory round trip would lengthen the cycle).
    """
    if threshold < 1:
        raise GraphError(f"spill threshold must be >= 1, got {threshold}")
    asap = asap_times(dfg)
    out = []
    for e in dfg.edges.values():
        if e.distance != 0:
            continue
        if dfg.ops[e.src].opcode is Opcode.CONST:
            continue
        if asap[e.dst] - asap[e.src] > threshold:
            out.append(e.id)
    return sorted(out)


def spill_long_edges(dfg: DFG, *, threshold: int = 4) -> tuple[DFG, int]:
    """Return a copy of *dfg* with every long edge spilled through memory,
    plus the number of edges rewritten.

    Each spilled edge gets its own circular temporary array
    ``__tmp<edge_id>`` of :data:`SPILL_RING` words (bind a zeroed array of
    that name before executing).
    """
    targets = set(spill_candidates(dfg, threshold))
    if not targets:
        return dfg.copy(), 0
    out = DFG(name=dfg.name)
    # copy ops with identical ids
    for op_id in sorted(dfg.ops):
        op = dfg.ops[op_id]
        node = out.add_op(
            op.opcode, name=op.name, immediate=op.immediate, memref=op.memref
        )
        assert node.id == op_id
    for e in sorted(dfg.edges.values(), key=lambda e: e.id):
        if e.id not in targets:
            out.add_edge(e.src, e.dst, e.operand_index, distance=e.distance, init=e.init)
            continue
        array = f"{TMP_ARRAY_PREFIX}{e.id}"
        ref = MemRef(array, stride=1, offset=0, ring=SPILL_RING)
        store = out.add_op(Opcode.STORE, name=f"spill{e.id}", memref=ref)
        out.add_edge(e.src, store, 0)
        # LOADT's token operand orders the read after this iteration's
        # store (and, being a dataflow edge, keeps >= 1 cycle between them,
        # satisfying the memory's write-then-read timing)
        load = out.add_op(Opcode.LOADT, name=f"fill{e.id}", memref=ref)
        out.add_edge(store, load, 0)
        out.add_edge(load, e.dst, e.operand_index)
    return out, len(targets)

