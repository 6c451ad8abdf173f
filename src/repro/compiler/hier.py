"""Hierarchical two-level place-and-route (the "hier" backend).

The flat paged mapper treats the whole page chain as one big restricted
fabric: every op considers every covered PE, and the ring constraint is
only discovered through failed routes.  That scales poorly past ~16 PEs —
the candidate lists grow with the array while the per-op budgets stay
fixed, so low-II rungs burn their evaluation budget probing hopeless
placements.  Following the space/time-decoupling idea of recent CGRA
mappers (Tirelli et al., PAPERS.md), this backend decides *where* at page
granularity before deciding *when* at PE granularity:

1. **Cluster.**  Contract the DFG's SCCs (a recurrence can never span
   pages on a chain — data cannot flow backwards) and order the blocks by
   a deterministic lexicographic topological sort.  A contiguous partition
   of that block sequence into ``k`` groups is then ring-feasible by
   construction: every cross-group edge points forward along the chain.
   The partition is chosen by dynamic programming to minimise the total
   forward page distance of cut edges (the min-cut objective — each page
   boundary an edge spans costs one route slot per firing) subject to
   per-page slot and memory capacities (capability-aware: a page's memory
   budget is ``min(bus slots, mem-capable PEs x II)``).  ``k`` starts at
   the capacity lower bound and grows only while the DP is infeasible, so
   the clustered attempt also *minimises the page need* up front.
2. **Place.**  Run the existing intra-page mapper once, with every op's
   candidate pool pinned to its page's PEs (``domains``) — candidate
   enumeration is O(page size), not O(array), and routing distances are
   short because endpoints are at most one page gap apart.

The backend plugs into the (II, attempt) lattice as *attempt 0* of every
II rung; attempts 1..N replay the flat ladder's probes unchanged.  The
lattice therefore stays a deterministic total order that the one ladder
driver (:func:`repro.compiler.search.climb_ladder`) walks in order, and
the flat fallback guarantees the backend never maps less than the flat
chain pass at the same II.

The hier backend is chain-only (it never uses the ring-wrap link): the
contiguous forward partition cannot produce a wrap dependency, and flat
fallback attempts run on the chain topology.
"""

from __future__ import annotations

import heapq

from repro.arch.cgra import CGRA
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import page_need, slot_capacity
from repro.compiler.ems import FAIL_FAST_BUDGET, FULL_BUDGET, EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping, materialized_edges, materialized_ops
from repro.compiler.paged import (
    PagedMapping, prefix, shrink_to_page_need, spanned_prefix,
)
from repro.compiler.search import climb_ladder
from repro.compiler.stats import counters
from repro.core.page_schedule import extract_page_schedule
from repro.core.paging import PageLayout
from repro.dfg.graph import DFG
from repro.dfg.graphalg import strong_components

__all__ = ["HierMapper", "map_dfg_hier", "cluster_dfg"]

_INF = float("inf")


def _blocks(dfg: DFG):
    """The DFG's materialized ops as SCC blocks in deterministic
    topological order, plus the cross-block edge list (block indices).

    Returns ``(block_ops, block_edges)`` where ``block_ops`` is a list of
    op-id tuples and every ``(bi, bj)`` in ``block_edges`` has
    ``bi < bj``.  Determinism: blocks are ordered by a lexicographic
    topological sort keyed on the smallest op id in the block, so equal
    DFGs produce identical partitions on every run and every worker.
    """
    succ: dict[int, dict[int, None]] = {v: {} for v in materialized_ops(dfg)}
    for e in materialized_edges(dfg):
        succ[e.src][e.dst] = None
    components = strong_components(succ)
    scc = {v: i for i, members in enumerate(components) for v in members}
    cross = sorted(
        {(scc[u], scc[v]) for u in succ for v in succ[u] if scc[u] != scc[v]}
    )
    # Kahn's algorithm on the condensation, the ready set a heap keyed on
    # the smallest op id of the component
    after: list[list[int]] = [[] for _ in components]
    waiting = [0] * len(components)
    for a, b in cross:
        after[a].append(b)
        waiting[b] += 1
    ready = [(min(c), i) for i, c in enumerate(components) if not waiting[i]]
    heapq.heapify(ready)
    index: dict[int, int] = {}
    while ready:
        _, a = heapq.heappop(ready)
        index[a] = len(index)
        for b in after[a]:
            waiting[b] -= 1
            if not waiting[b]:
                heapq.heappush(ready, (min(components[b]), b))
    block_ops = [tuple(sorted(components[a])) for a in index]
    block_edges = sorted((index[a], index[b]) for a, b in cross)
    return block_ops, block_edges


def _partition(
    sizes: list[tuple[int, int]],
    block_edges: list[tuple[int, int]],
    caps: list[tuple[int, int]],
) -> list[int] | None:
    """Min-cut contiguous partition of the block sequence into
    ``len(caps)`` non-empty groups.

    ``sizes[i]`` is ``(ops, mem_ops)`` of block *i*; ``caps[j]`` is the
    ``(slot, mem)`` capacity of group (page) *j*.  The cost of a partition
    is the sum over group boundaries of the number of edges crossing that
    boundary — exactly the total forward page distance of all cut edges,
    since an edge spanning *d* boundaries is counted *d* times.  Returns
    the per-block group index, or None when no feasible partition exists.
    """
    m, k = len(sizes), len(caps)
    if k < 1 or k > m:
        return None
    # edges crossing each boundary b (between blocks b-1 and b), via a
    # difference array: edge (bi, bj) crosses boundaries bi+1 .. bj
    diff = [0] * (m + 1)
    for bi, bj in block_edges:
        diff[bi + 1] += 1
        diff[bj + 1] -= 1
    cross = [0] * (m + 1)
    acc = 0
    for b in range(1, m):
        acc += diff[b]
        cross[b] = acc
    p_ops = [0] * (m + 1)
    p_mem = [0] * (m + 1)
    for i, (n_ops, n_mem) in enumerate(sizes):
        p_ops[i + 1] = p_ops[i] + n_ops
        p_mem[i + 1] = p_mem[i] + n_mem
    # f[j][i]: min cut cost of packing the first i blocks into the first j
    # groups, with group j-1 ending at block i-1
    f = [[_INF] * (m + 1) for _ in range(k + 1)]
    back = [[-1] * (m + 1) for _ in range(k + 1)]
    f[0][0] = 0.0
    for j in range(1, k + 1):
        op_cap, mem_cap = caps[j - 1]
        # group j-1 must leave at least k-j blocks for the remaining groups
        for i in range(j, m - (k - j) + 1):
            best, arg = _INF, -1
            for i0 in range(j - 1, i):
                if p_ops[i] - p_ops[i0] > op_cap:
                    continue  # segment grows as i0 shrinks; keep scanning up
                if p_mem[i] - p_mem[i0] > mem_cap:
                    continue
                prev = f[j - 1][i0]
                if prev is _INF:
                    continue
                c = prev + (cross[i0] if i0 else 0)
                if c < best:
                    best, arg = c, i0
            f[j][i], back[j][i] = best, arg
    if f[k][m] is _INF or back[k][m] < 0:
        return None
    groups = [0] * m
    i = m
    for j in range(k, 0, -1):
        i0 = back[j][i]
        for b in range(i0, i):
            groups[b] = j - 1
        i = i0
    return groups


def cluster_dfg(
    dfg: DFG,
    layout: PageLayout,
    ii: int,
    *,
    blocks=None,
) -> dict[int, int] | None:
    """Assign every materialized op to a page of *layout*'s chain prefix.

    Tries the smallest feasible page count first (the capacity lower
    bound, :func:`~repro.compiler.constraints.page_need`) and grows it
    while the capacity-constrained min-cut DP is infeasible.  Returns
    ``{op_id: page}`` or None when no prefix of the chain can hold the
    clustering (e.g. a recurrence SCC bigger than a page).  Pure function
    of its arguments — no randomness — so every worker computes the
    identical clustering.  *blocks* may carry a precomputed
    ``_blocks(dfg)`` result — the decomposition is II-independent, so
    ladder callers compute it once per DFG.
    """
    block_ops, block_edges = blocks if blocks is not None else _blocks(dfg)
    if not block_ops:
        return None
    sizes = [
        (
            len(ops),
            sum(1 for o in ops if dfg.ops[o].is_memory),
        )
        for ops in block_ops
    ]
    # per-page (slot, mem) capacities at *ii*, capability-aware
    pages = [slot_capacity(layout.cgra, layout, n) for n in range(layout.num_pages)]
    caps = [(c.pes * ii, c.mem_ops * ii) for c in pages]
    for k in range(page_need(dfg, layout, ii), layout.num_pages + 1):
        groups = _partition(sizes, block_edges, caps[:k])
        if groups is None:
            continue
        assignment: dict[int, int] = {}
        for b, ops in enumerate(block_ops):
            for op in ops:
                assignment[op] = groups[b]
        return assignment
    return None


class HierMapper(EMSMapper):
    """The flat chain mapper of a layout, with one more probe per rung.

    Rung layout: attempt 0 is the clustered (hierarchical) probe; attempts
    ``1 .. config.attempts_per_ii`` are the flat chain ladder's attempts
    ``0 .. attempts_per_ii - 1``, bit for bit (same op orders, same
    replayed rng perturbations).  Everything else about the ladder — its
    bounds, so hier and flat start at the same rung; its base orders — is
    the inherited flat mapper's.
    """

    def __init__(
        self,
        cgra: CGRA,
        layout: PageLayout,
        config: MapperConfig | None = None,
        probes=None,
    ) -> None:
        super().__init__(cgra, layout, config, probes)
        # chain-prefix mappers by (pages, fail-fast budget), built lazily;
        # the full chain at full budget is this mapper itself
        self._subs: dict[tuple[int, bool], EMSMapper] = {
            (layout.num_pages, False): self
        }
        # SCC/topo block decomposition is II-independent: a one-slot memo
        # ``(DFG adjacency epoch, blocks)`` shared by every rung of a ladder,
        # like EMSMapper._dfg_tables
        self._block_cache: tuple | None = None

    def lattice_attempts_per_ii(self) -> int:
        return self.config.attempts_per_ii + 1

    def run_lattice_attempt(
        self, dfg: DFG, start_ii: int, ii: int, attempt: int, orders
    ) -> Mapping | None:
        if attempt == 0:
            counters().hier_attempts += 1
            mapping = self._hier_attempt(dfg, ii, orders)
            if mapping is not None:
                counters().hier_wins += 1
            return mapping
        counters().hier_flat_attempts += 1
        mapping = super().run_lattice_attempt(
            dfg, start_ii, ii, attempt - 1, orders
        )
        if mapping is not None:
            counters().hier_flat_wins += 1
        return mapping

    # -- the clustered attempt -------------------------------------------------------

    def prefix_mapper(self, k: int, *, cheap: bool = False) -> EMSMapper:
        """The flat mapper of the first *k* chain pages (its ``layout`` is
        that prefix).  *cheap* selects :data:`~repro.compiler.ems.
        FAIL_FAST_BUDGET`: an easy win still lands well inside it."""
        key = (k, cheap)
        hit = self._subs.get(key)
        if hit is None:
            hit = self._subs[key] = EMSMapper(
                self.cgra,
                prefix(self.layout, k),
                self.config,
                self.probes,
                budget=FAIL_FAST_BUDGET if cheap else FULL_BUDGET,
            )
        return hit

    def _hier_attempt(self, dfg: DFG, ii: int, orders) -> Mapping | None:
        self.stuck = None  # until the placer is reached there is no stuck op
        # Single-row/column page tiles (ps=2 is 2x1) leave clustered
        # domains no lateral routing room: the probe essentially never
        # succeeds but still burns its full eval budget at every rung.
        # Fall straight through to the flat replay attempts there.
        if min(self.layout.shape) < 2:
            return None
        adj = dfg._adjacency()
        cache = self._block_cache
        if cache is None or cache[0] is not adj:
            cache = self._block_cache = (adj, _blocks(dfg))
        assignment = cluster_dfg(dfg, self.layout, ii, blocks=cache[1])
        if assignment is None:
            return None
        k = 1 + max(assignment.values())
        mapper = self.prefix_mapper(k, cheap=k > 1)
        id_of = self.cgra.grid_index.id_of
        page_ids = {
            n: tuple(
                sorted(id_of[pe] for pe in mapper.layout.coords_of_page(n))
            )
            for n in range(k)
        }
        domains = {op: page_ids[page] for op, page in assignment.items()}
        # primary probe, first base order (reverse dataflow: consumers
        # first, so each op's edges route the moment it lands).  Multi-page
        # probes run at reduced budget: hard page domains either place
        # quickly or not at all, and a cheap failure keeps the rung's cost
        # near the flat ladder's.
        mapping = mapper._try_map(dfg, ii, list(orders[0]), domains=domains)
        self.stuck = mapper.stuck  # the primary probe's, whatever follows
        if mapping is not None or k > 1:
            return mapping
        # Single-page kernels: the page domain is vacuous (every op may use
        # the whole 1-page prefix), so the clustered probe is really a
        # small-prefix search — worth diversifying over the remaining base
        # orders at reduced budget.  A win here short-circuits the rung's
        # full-array flat attempts AND the page-minimisation epilogue; a
        # loss costs little because the budgets fail fast on 1 page.
        cheap = self.prefix_mapper(1, cheap=True)
        for oi in range(1, len(orders)):
            mapping = cheap._try_map(
                dfg, ii, list(orders[oi]), domains=domains
            )
            if mapping is not None:
                return mapping
        return None


def map_dfg_hier(
    dfg: DFG,
    cgra: CGRA,
    layout: PageLayout,
    *,
    config: MapperConfig | None = None,
    minimize_pages: bool = True,
    search_log=None,
    probes=None,
) -> PagedMapping:
    """Map *dfg* with the hierarchical backend (see the module docstring).

    Entry point the paged compiler dispatches to for
    ``config.backend == "hier"``, with the same signature (the hier
    backend is chain-only: there is no ring fallback).  The widened
    (II, attempt) lattice is climbed by the same ``climb_ladder`` as the
    flat one.
    """
    cfg = config or MapperConfig()
    mapping = climb_ladder(HierMapper(cgra, layout, cfg, probes), dfg, log=search_log)
    # the result lives on the prefix it touches: validate against, and
    # page-schedule on, exactly those pages
    sub = spanned_prefix(mapping, layout)
    validate_mapping(mapping, sub)
    best = PagedMapping(mapping, sub, extract_page_schedule(mapping, sub), layout)
    if not minimize_pages:
        return best
    # When the clustered attempt won, the prefix already sits at the
    # capacity lower bound and there is nothing left to try.
    return shrink_to_page_need(best, dfg, cgra, layout, cfg, search_log, probes)
