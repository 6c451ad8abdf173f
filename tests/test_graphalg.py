"""`repro.dfg.graphalg` against networkx, which `src/` no longer imports.

The networkx code each call site ran before is kept here as the
reference (`_nx_*`), and the kernels are compared with it twice: on
random digraphs built node for node and edge for edge in the same
insertion order, and through every call site on the 11 suite kernels and
50 `random_dfg` draws.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

nx = pytest.importorskip("networkx")

from repro.arch import CGRA  # noqa: E402
from repro.arch.isa import Opcode  # noqa: E402
from repro.compiler.mapping import materialized_ops  # noqa: E402
from repro.compiler.ems import EMSMapper  # noqa: E402
from repro.core.paging import PageLayout  # noqa: E402
from repro.dfg import analysis  # noqa: E402
from repro.dfg.graphalg import (  # noqa: E402
    has_negative_cycle,
    strong_components,
    topological_order,
)
from repro.dfg.random_dfg import random_arrays, random_dfg  # noqa: E402
from repro.kernels import fresh_arrays, get_kernel, kernel_names  # noqa: E402
from repro.sim import reference  # noqa: E402

# ---------------------------------------------------------------------------
# the kernels on random digraphs
# ---------------------------------------------------------------------------


@st.composite
def digraphs(draw, acyclic=False):
    """(node list, edge list): nodes in a drawn order, edges with repeats
    and — unless *acyclic* — self-loops and back edges."""
    n = draw(st.integers(0, 9))
    nodes = draw(st.permutations(range(n)))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pair, max_size=3 * n)) if n else []
    if acyclic:  # orient every edge along one drawn ranking
        rank = draw(st.permutations(range(n)))
        edges = [
            (u, v) if rank[u] < rank[v] else (v, u) for u, v in edges if u != v
        ]
    return list(nodes), edges


def _both(nodes, edges, weights=None):
    """The same graph as adjacency dicts and as an `nx.DiGraph`, built in
    the same insertion order (a repeated edge overwrites its weight)."""
    succ = {v: {} for v in nodes}
    g = nx.DiGraph()
    g.add_nodes_from(nodes)
    for i, (u, v) in enumerate(edges):
        w = weights[i] if weights else None
        succ[u][v] = w
        g.add_edge(u, v, weight=w)
    return succ, g


@settings(max_examples=150, deadline=None)
@given(digraphs(acyclic=True))
def test_topological_order_is_networkx_order(graph):
    succ, g = _both(*graph)
    assert topological_order(succ) == list(nx.topological_sort(g))


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_topological_order_is_none_exactly_on_cycles(graph):
    succ, g = _both(*graph)
    order = topological_order(succ)
    if nx.is_directed_acyclic_graph(g):
        assert order == list(nx.topological_sort(g))
    else:
        assert order is None


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_strong_components_partition_and_order(graph):
    succ, g = _both(*graph)
    components = strong_components(succ)
    assert sorted(map(sorted, components)) == sorted(
        map(sorted, nx.strongly_connected_components(g))
    )
    # completion order: whatever a component reaches was emitted before it
    position = {v: i for i, c in enumerate(components) for v in c}
    for u, v in g.edges:
        assert position[v] <= position[u]


@settings(max_examples=150, deadline=None)
@given(digraphs().flatmap(
    lambda graph: st.tuples(
        st.just(graph),
        st.lists(
            st.integers(-3, 6),
            min_size=len(graph[1]),
            max_size=len(graph[1]),
        ),
    )
))
def test_has_negative_cycle_is_networkx_answer(drawn):
    (nodes, edges), weights = drawn
    succ, g = _both(nodes, edges, weights)
    assert has_negative_cycle(succ) == nx.negative_edge_cycle(g, weight="weight")


def test_deep_chain_needs_no_recursion():
    n = 5000
    succ = {i: {i + 1: None} for i in range(n)} | {n: {0: None}}
    assert [sorted(c) for c in strong_components(succ)] == [list(range(n + 1))]
    succ[n] = {}
    assert topological_order(succ) == list(range(n + 1))
    assert [c[0] for c in strong_components(succ)] == list(range(n, -1, -1))


# ---------------------------------------------------------------------------
# the five call sites, as they were written on networkx
# ---------------------------------------------------------------------------


def _nx_dag(dfg):
    g = nx.DiGraph()
    g.add_nodes_from(dfg.ops)
    for e in dfg.edges.values():
        if e.distance == 0:
            g.add_edge(e.src, e.dst)
    return g


def _nx_asap_times(dfg):
    g = _nx_dag(dfg)
    times = {}
    for v in nx.topological_sort(g):
        preds = list(g.predecessors(v))
        times[v] = 0 if not preds else max(times[u] + 1 for u in preds)
    return times


def _nx_alap_times(dfg, horizon=None):
    g = _nx_dag(dfg)
    asap = _nx_asap_times(dfg)
    if horizon is None:
        horizon = max(asap.values(), default=0)
    times = {}
    for v in reversed(list(nx.topological_sort(g))):
        succs = list(g.successors(v))
        times[v] = horizon if not succs else min(times[w] - 1 for w in succs)
    return times


def _nx_has_positive_cycle(dfg, ii):
    g = nx.DiGraph()
    g.add_nodes_from(dfg.ops)
    for e in dfg.edges.values():
        w = e.distance * ii - 1
        if g.has_edge(e.src, e.dst):
            w = min(w, g[e.src][e.dst]["weight"])
        g.add_edge(e.src, e.dst, weight=w)
    return bool(nx.negative_edge_cycle(g, weight="weight"))


def _nx_rec_mii(dfg):
    if not any(e.distance > 0 for e in dfg.edges.values()):
        return 1
    upper = max(1, dfg.num_ops)
    for ii in range(1, upper + 1):
        if not _nx_has_positive_cycle(dfg, ii):
            return ii
    return upper


def _nx_spread_targets(mapper, dfg):
    ranks = range(mapper.layout.num_pages)
    top = len(ranks) - 1
    g = nx.DiGraph()
    g.add_nodes_from(dfg.ops)
    for e in dfg.edges.values():
        if dfg.ops[e.src].opcode is not Opcode.CONST and e.src != e.dst:
            g.add_edge(e.src, e.dst)
    cond = nx.condensation(g)
    height = {}
    for scc in reversed(list(nx.topological_sort(cond))):
        succs = list(cond.successors(scc))
        height[scc] = 0 if not succs else 1 + max(height[s] for s in succs)
    max_h = max(height.values(), default=0)
    scale = min(1.0, top / max_h) if max_h else 0.0
    targets = {}
    for v in materialized_ops(dfg):
        h = height[cond.graph["mapping"][v]]
        targets[v] = ranks[round(max_h * scale) - round(h * scale)]
    return targets


def _suite_and_random_dfgs():
    for name in kernel_names():
        spec = get_kernel(name)
        yield name, spec.build(), lambda spec=spec: fresh_arrays(spec, 0, 4)
    for seed in range(50):
        dfg = random_dfg(seed, n_ops=4 + seed % 12, n_outputs=1 + seed % 2)
        yield dfg.name, dfg, lambda dfg=dfg, seed=seed: random_arrays(dfg, seed, 4)


def test_call_sites_equal_their_networkx_versions(monkeypatch):
    cgra = CGRA(4, 4, rf_depth=24)
    mapper = EMSMapper(cgra, PageLayout(cgra, (2, 2)))
    used = []  # the order run_reference walked, from inside it
    monkeypatch.setattr(
        reference,
        "dataflow_dag",
        lambda dfg: used.append(analysis.dataflow_dag(dfg)) or used[-1],
    )
    recurrences = 0
    for name, dfg, arrays in _suite_and_random_dfgs():
        asap, alap = analysis.asap_times(dfg), analysis.alap_times(dfg)
        # as ordered dicts: the mappers never iterate them, but equal
        # insertion order is what "the same table" means
        assert list(asap.items()) == list(_nx_asap_times(dfg).items()), name
        assert list(alap.items()) == list(_nx_alap_times(dfg).items()), name
        horizon = max(asap.values()) + 3
        assert analysis.alap_times(dfg, horizon) == _nx_alap_times(dfg, horizon)
        assert analysis.rec_mii(dfg) == _nx_rec_mii(dfg), name
        for ii in (1, 2, 3):
            assert analysis.has_positive_cycle(dfg, ii) == _nx_has_positive_cycle(
                dfg, ii
            ), (name, ii)
        assert mapper._spread_targets(dfg) == _nx_spread_targets(mapper, dfg), name
        reference.run_reference(dfg, arrays(), 4)
        assert used.pop()[1] == list(nx.topological_sort(_nx_dag(dfg))), name
        recurrences += analysis.rec_mii(dfg) > 1
    # both branches of every comparison were taken
    assert recurrences
