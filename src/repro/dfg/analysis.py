"""Scheduling analyses on dataflow graphs.

Implements the graph-side analyses the paper's compiler (EMS-based)
relies on:

* ``rec_mii`` — recurrence-constrained lower bound (Rau): the smallest II
  such that no dependence cycle requires more latency than ``II x`` its
  total iteration distance (Fig. 3's recurrence is the canonical example).
  The resource terms, and the MII that combines them, are
  :func:`repro.compiler.feas.ii_lower_bound`'s.
* ``asap_times`` / ``alap_times`` — schedule windows on the distance-0 DAG,
  used for op prioritisation by the mappers.

All latencies are 1 cycle (see :mod:`repro.arch.isa`).
"""

from __future__ import annotations

from repro.dfg.graph import DFG
from repro.dfg.graphalg import has_negative_cycle, strong_components, topological_order
from repro.util.errors import GraphError

__all__ = [
    "dataflow_dag",
    "asap_times",
    "alap_times",
    "rec_mii",
    "has_positive_cycle",
]

LATENCY = 1  # single-cycle PEs


def dataflow_dag(dfg: DFG) -> tuple[dict[int, dict[int, None]], list[int]]:
    """The distance-0 subgraph as adjacency dicts (ops and edges in
    insertion order) and its topological order.  A :class:`GraphError`
    naming the ops of one cycle if it has any."""
    succ: dict[int, dict[int, None]] = {v: {} for v in dfg.ops}
    for e in dfg.edges.values():
        if e.distance == 0:
            succ[e.src][e.dst] = None
    order = topological_order(succ)
    if order is None:
        # every member of a cyclic component has a successor inside it:
        # walk those from the smallest op until one repeats (no edge is a
        # self-loop, so a cyclic component has two ops or more)
        members = next(set(c) for c in strong_components(succ) if len(c) > 1)
        path = [min(members)]
        while path[-1] not in path[:-1]:
            path.append(next(w for w in succ[path[-1]] if w in members))
        cycle = path[path.index(path[-1]):]
        raise GraphError(
            f"distance-0 dependency cycle "
            f"{' -> '.join(f'op {v} ({dfg.ops[v].label})' for v in cycle)}: "
            f"every recurrence must cross a loop-carried edge"
        )
    return succ, order


def asap_times(dfg: DFG) -> dict[int, int]:
    """Earliest start time of each op on the distance-0 DAG (sources at 0)."""
    succ, order = dataflow_dag(dfg)
    times = dict.fromkeys(order, 0)
    for v in order:
        t = times[v] + LATENCY
        for w in succ[v]:
            if times[w] < t:
                times[w] = t
    return times


def alap_times(dfg: DFG, horizon: int | None = None) -> dict[int, int]:
    """Latest start time of each op given a schedule *horizon* (defaults to
    the critical-path length, making ALAP-ASAP the slack)."""
    if horizon is None:
        horizon = max(asap_times(dfg).values(), default=0)
    succ, order = dataflow_dag(dfg)
    times: dict[int, int] = {}
    for v in reversed(order):
        times[v] = min((times[w] - LATENCY for w in succ[v]), default=horizon)
    return times


def has_positive_cycle(dfg: DFG, ii: int) -> bool:
    """True if some dependence cycle is infeasible at initiation interval
    *ii*: total latency around the cycle exceeds ``ii x`` total distance.

    Checked with Bellman-Ford on negated weights: edge u->v gets weight
    ``distance*ii - latency``; a cycle of negative total weight in that
    graph is a positive-slack violation in the original.  Of two parallel
    edges the smaller weight (the tighter dependence) is the one kept.
    """
    weight: dict[int, dict[int, int]] = {v: {} for v in dfg.ops}
    for e in dfg.edges.values():
        w = e.distance * ii - LATENCY
        weight[e.src][e.dst] = min(w, weight[e.src].get(e.dst, w))
    return has_negative_cycle(weight)


def rec_mii(dfg: DFG) -> int:
    """Recurrence-constrained minimum II: smallest II with no infeasible
    dependence cycle.  1 for acyclic graphs.  Computed once per graph
    (:meth:`~repro.dfg.graph.DFG.derived`): every ladder of a job reads it."""
    return dfg.derived(_rec_mii)


def _rec_mii(dfg: DFG) -> int:
    if not any(e.distance > 0 for e in dfg.edges.values()):
        return 1
    # The worst possible RecMII is the total latency of all ops over a
    # distance-1 cycle, so a linear scan up to num_ops always terminates.
    upper = max(1, dfg.num_ops * LATENCY)
    for ii in range(1, upper + 1):
        if not has_positive_cycle(dfg, ii):
            return ii
    return upper

