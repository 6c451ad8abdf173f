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

import networkx as nx

from repro.dfg.graph import DFG

__all__ = [
    "asap_times",
    "alap_times",
    "rec_mii",
    "has_positive_cycle",
]

LATENCY = 1  # single-cycle PEs


def _dag(dfg: DFG) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(dfg.ops)
    for e in dfg.edges.values():
        if e.distance == 0:
            g.add_edge(e.src, e.dst)
    return g


def asap_times(dfg: DFG) -> dict[int, int]:
    """Earliest start time of each op on the distance-0 DAG (sources at 0)."""
    g = _dag(dfg)
    times: dict[int, int] = {}
    for v in nx.topological_sort(g):
        preds = list(g.predecessors(v))
        times[v] = 0 if not preds else max(times[u] + LATENCY for u in preds)
    return times


def alap_times(dfg: DFG, horizon: int | None = None) -> dict[int, int]:
    """Latest start time of each op given a schedule *horizon* (defaults to
    the critical-path length, making ALAP-ASAP the slack)."""
    g = _dag(dfg)
    asap = asap_times(dfg)
    if horizon is None:
        horizon = max(asap.values(), default=0)
    times: dict[int, int] = {}
    for v in reversed(list(nx.topological_sort(g))):
        succs = list(g.successors(v))
        times[v] = horizon if not succs else min(times[w] - LATENCY for w in succs)
    return times


def has_positive_cycle(dfg: DFG, ii: int) -> bool:
    """True if some dependence cycle is infeasible at initiation interval
    *ii*: total latency around the cycle exceeds ``ii x`` total distance.

    Checked with Bellman-Ford on negated weights: edge u->v gets weight
    ``distance*ii - latency``; a cycle of negative total weight in that
    graph is a positive-slack violation in the original.
    """
    g = nx.DiGraph()
    g.add_nodes_from(dfg.ops)
    for e in dfg.edges.values():
        w = e.distance * ii - LATENCY
        if g.has_edge(e.src, e.dst):
            w = min(w, g[e.src][e.dst]["weight"])
        g.add_edge(e.src, e.dst, weight=w)
    return bool(nx.negative_edge_cycle(g, weight="weight"))


def rec_mii(dfg: DFG) -> int:
    """Recurrence-constrained minimum II: smallest II with no infeasible
    dependence cycle.  1 for acyclic graphs."""
    if not any(e.distance > 0 for e in dfg.edges.values()):
        return 1
    # The worst possible RecMII is the total latency of all ops over a
    # distance-1 cycle, so a linear scan up to num_ops always terminates.
    upper = max(1, dfg.num_ops * LATENCY)
    for ii in range(1, upper + 1):
        if not has_positive_cycle(dfg, ii):
            return ii
    return upper

