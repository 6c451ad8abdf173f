"""The three graph algorithms the compiler and the reference interpreter
need, on plain adjacency dicts.

A graph is ``succ``: a dict with one key per node whose value is a dict
(or any iterable without repeats) of that node's successors, every
successor itself a key.  Dicts keep insertion order, and the orders
below are defined in terms of it, so equal graphs built the same way
give equal answers on every run and in every worker process.
"""

from __future__ import annotations

__all__ = ["topological_order", "strong_components", "has_negative_cycle"]


def topological_order(succ: dict) -> list | None:
    """Nodes of *succ* in topological order, or None if it has a cycle.

    Kahn's algorithm by generations: all in-degree-0 nodes in insertion
    order, then the nodes they free, in the order their last predecessor
    (scanned in generation order, successors in insertion order) freed
    them.  Two ops no edge relates — memory ops, for the reference
    interpreter — therefore keep one fixed relative order.
    """
    indegree = dict.fromkeys(succ, 0)
    for targets in succ.values():
        for w in targets:
            indegree[w] += 1
    order = [v for v, d in indegree.items() if d == 0]
    for v in order:  # grows while scanned: a generation appends the next
        for w in succ[v]:
            indegree[w] -= 1
            if indegree[w] == 0:
                order.append(w)
    return order if len(order) == len(succ) else None


def strong_components(succ: dict) -> list[list]:
    """Strongly connected components of *succ* (Tarjan, iterative), in
    completion order: a component is emitted after every component it
    reaches, so one forward scan of the result sees successors first."""
    index: dict = {}  # discovery number
    low: dict = {}
    stack: list = []  # Tarjan's stack; `low` doubles as the on-stack set
    components: list[list] = []
    for root in succ:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if w in low and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        del low[w]
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def has_negative_cycle(succ: dict) -> bool:
    """True if the weighted graph ``succ[u][v] = weight`` has a cycle of
    negative total weight (a negative self-loop counts).

    Bellman-Ford from a virtual source with a 0-weight edge to every
    node: all distances start at 0, and if pass ``len(succ)`` still
    relaxes an edge, no shortest path explains it — only a cycle does.
    """
    dist = dict.fromkeys(succ, 0)
    relaxed = False
    for _ in succ:
        relaxed = False
        for u, targets in succ.items():
            du = dist[u]
            for v, w in targets.items():
                if du + w < dist[v]:
                    dist[v] = du + w
                    relaxed = True
        if not relaxed:
            break
    return relaxed
