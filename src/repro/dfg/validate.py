"""Structural validation of dataflow graphs.

A DFG is well-formed when every operand slot of every op is driven by
exactly one edge, the distance-0 subgraph is acyclic (every dependence cycle
must cross at least one loop-carried edge — otherwise the loop could never
execute), and loop-carried edges carry their initial values.
"""

from __future__ import annotations

from repro.arch.isa import OPCODE_INFO
from repro.dfg.analysis import dataflow_dag
from repro.dfg.graph import DFG
from repro.util.errors import GraphError

__all__ = ["validate_dfg"]


def validate_dfg(dfg: DFG) -> None:
    """Raise :class:`GraphError` if *dfg* is not well-formed."""
    for op in dfg.ops.values():
        arity = OPCODE_INFO[op.opcode].arity
        seen = sorted(e.operand_index for e in dfg.in_edges(op))
        if seen != list(range(arity)):
            raise GraphError(
                f"op {op.id} ({op.label}): operand slots driven {seen}, "
                f"need exactly 0..{arity - 1}"
            )
    for e in dfg.edges.values():
        if e.src not in dfg.ops or e.dst not in dfg.ops:
            raise GraphError(f"edge {e.id} references missing op")
        if e.distance == 0 and len(e.init) != 0:
            raise GraphError(f"edge {e.id}: init values on a distance-0 edge")

    dataflow_dag(dfg)  # raises on a distance-0 cycle, naming it
