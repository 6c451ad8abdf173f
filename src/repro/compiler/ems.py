"""Modulo-scheduling place-and-route mapper (EMS-style baseline).

This is the reproduction of the paper's baseline compiler: a modulo
scheduler in the family of edge-centric modulo scheduling (EMS, Park et
al. [25]), which the paper's experiments build on.  The algorithm:

1. compute ``MII = max(ResMII, RecMII)``;
2. for each candidate II (MII, MII+1, ...), try to place operations one at
   a time in slack order (ALAP-first); each op is placed at the cheapest
   of the first few (time, PE) candidates from which *every* edge to an
   already-placed producer or consumer can be routed on the time-extended
   mesh (:mod:`repro.compiler.routing`), claiming routing PEs as it goes;
3. a few restarts with perturbed op order absorb unlucky greedy choices
   before giving up and bumping the II.

This module owns steps 1 and 2 for one (II, attempt) probe; the walk over
IIs and restarts (the *ladder*) is :func:`repro.compiler.search.
climb_ladder`, shared by every mapper.

Placing one op (:meth:`EMSMapper._place_op`) decides *where* before
*when*.  Under the ring constraint most PEs are hopeless for an op whose
neighbours are placed, and that is a question about sets: per cycle, one
sweep from each anchored endpoint — forward from every holder of a
producer's value, backward from each placed consumer — yields the mask of
PEs from which all edges are still reachable
(:meth:`EMSMapper._candidate_mask`).  A candidate outside the mask is
refuted without a trial (and counted as one, so the budget cuts fall where
they would); one inside it is trialled — committed, scored, rolled back —
and where the mask is exact the trial skips the per-edge check it would
have opened with.  Every trial starts from the table the op started from,
so the best one's routes are kept and replayed as the commit
(:meth:`EMSMapper._replay`) instead of being searched a second time.

A scan stops once no later candidate can win.  A route lays one step per
cycle of its gap, so the op's times alone bound what a trial at cycle *t*
or later can cost (:func:`~repro.compiler.routing.cost_floors`); when that
floor reaches the best cost found, no later trial can beat it under the
strict ``<``, so neither can a budget cut that would have ended the scan
later change its winner, and the result is the unstopped scan's byte for
byte.  Only the search counters fall (the flat 4x4 suite's
``trial_commits``: 168 873 → 77 747).

The paged compiler (:mod:`repro.compiler.paged`) reuses this engine with a
page layout, from which the mapper derives every §VI-B constraint
(:mod:`repro.compiler.constraints`) — which is how the paper describes its
approach: "add some additional constraints to the compiler when it is
generating the original schedule" (§I).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Sequence

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.compiler.constraints import covered_pes, slot_capacity
from repro.compiler.feas import ii_lower_bound
from repro.compiler.mapping import (
    Mapping,
    Placement,
    Route,
    RouteStep,
    materialized_edges,
    materialized_ops,
)
from repro.compiler.mrt import ReservationTable
from repro.compiler.routing import (
    commit_route,
    cost_floors,
    find_route_shared_ids,
    release_route,
    routing_context,
)
from repro.compiler.stats import MapperCounters, counters
from repro.core.paging import PageLayout
from repro.dfg.analysis import alap_times, asap_times
from repro.dfg.graph import DFG
from repro.dfg.graphalg import strong_components
from repro.util.errors import MappingError
from repro.util.fingerprint import canonical_fingerprint
from repro.util.rng import PCG64Stream

__all__ = [
    "BACKENDS",
    "Budget",
    "FULL_BUDGET",
    "FAIL_FAST_BUDGET",
    "MapperConfig",
    "EMSMapper",
    "map_dfg",
]

#: The paged-mapping backends, spelled once: ``MapperConfig``, the wire
#: protocol and the bench CLI all validate against this tuple.
BACKENDS = ("flat", "hier")


class Budget(NamedTuple):
    """The placer's search budgets for one probe."""

    horizon_factor: int  #: schedule horizon = critical path + factor * II
    route_budget: int  #: DFS expansion cap for long routes
    candidate_cap: int  #: feasible candidates scored per op
    eval_budget: int  #: total (time, PE) candidates probed per op
    root_margin: int  #: extra slack before anchor-less non-source ops


#: What every ladder probes with.
FULL_BUDGET = Budget(
    horizon_factor=4, route_budget=3000, candidate_cap=10, eval_budget=200,
    root_margin=2,
)
#: The hier backend's one-page probes after the first base order
#: (:mod:`repro.compiler.hier`): a kernel that fits one page either places
#: there quickly or not at all, so they fail fast.
FAIL_FAST_BUDGET = FULL_BUDGET._replace(
    route_budget=800, candidate_cap=6, eval_budget=50
)


@dataclass(frozen=True)
class MapperConfig:
    """What a caller chooses about a ladder: its length, its width, the
    seed of its perturbed op orders and the paged backend.  No probe reads
    any of them; the probe's budgets are :data:`FULL_BUDGET`."""

    max_ii: int = 64
    attempts_per_ii: int = 6
    seed: int = 0
    #: Paged-mapping backend (one of :data:`BACKENDS`): "flat" is the
    #: original single-level ladder; "hier" prepends a one-page probe to
    #: every II rung (:mod:`repro.compiler.hier`).
    backend: str = "flat"

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise MappingError(
                f"unknown mapper backend {self.backend!r} "
                f"(valid: {', '.join(BACKENDS)})"
            )
        if self.seed < 0:
            raise MappingError(f"mapper seed must be >= 0, got {self.seed}")
        for knob in ("max_ii", "attempts_per_ii"):
            if getattr(self, knob) < 1:
                raise MappingError(f"{knob} must be >= 1, got {getattr(self, knob)}")

    def fingerprint(self) -> str:
        """Canonical hash over every knob and the :data:`FULL_BUDGET` the
        ladder probes with — any tuning change invalidates cached artifacts
        keyed on it (:mod:`repro.pipeline`).  The default ``backend`` is
        dropped from the payload so configs predating the knob keep their
        fingerprint (and committed artifact addresses)."""
        payload = {**asdict(self), **FULL_BUDGET._asdict()}
        if payload["backend"] == "flat":
            del payload["backend"]
        return canonical_fingerprint(payload)


class _DfgTables(NamedTuple):
    """What every probe of every ladder of a job needs and only the DFG
    determines, built once per graph (:func:`_dfg_tables`)."""

    asap: dict[int, int]
    #: the three base op orders of :meth:`EMSMapper.attempt_orders`
    orders: tuple[tuple[int, ...], ...]
    #: non-constant producer of every in-edge of an op (duplicates
    #: preserved, one per edge, matching the historical per-edge count)
    trap_in: dict[int, tuple[int, ...]]
    trap_out: dict[int, tuple[int, ...]]  #: consumer op ids of an op
    #: :meth:`EMSMapper._spread_targets` per chain length, filled on use
    spread: dict[int, dict[int, int]]


class _OpFacts(NamedTuple):
    """What every trial of one :meth:`EMSMapper._place_op` knows of its op."""
    is_mem: bool
    open_succ: bool  #: some consumer is unplaced: score the escape room
    open_pred: bool  #: some producer is unplaced: score the arrival room


@dataclass
class _Attempt:
    """Mutable state of one placement attempt.

    ``placements`` maps op id to ``(pe_id, time)`` in the integer PE-id
    domain of the fabric's grid index; :class:`Placement` objects (with
    ``Coord``) are only materialized for the final :class:`Mapping`.
    """

    mrt: ReservationTable
    #: the thread's active counters, fetched once per attempt
    stats: MapperCounters
    placements: dict[int, tuple[int, int]] = field(default_factory=dict)
    routes: dict[int, Route] = field(default_factory=dict)
    #: the :class:`RoutingContext` sweeps (forward frontiers, backward
    #: corridors) of the current ``_place_op``: every trial rolls ``mrt``
    #: back to the state the op started from, so its candidate masks and
    #: all its candidates share them
    fronts: dict[tuple[int, int], list[int]] = field(default_factory=dict)
    #: what no trial of the current ``_place_op`` changes about its op
    op: _OpFacts | None = None
    #: what :meth:`EMSMapper._traps_pending_edge` checks, that op placed: op
    #: id -> (arrival slots needed, <= 2; needs an escape slot), per pending op
    watch: dict[int, tuple[int, bool]] = field(default_factory=dict)
    #: ``(op_id, reason)`` the attempt died on: ``window`` (no cycle between
    #: the op's placed producers and consumers), ``no-pe`` (empty candidate
    #: pool), ``no-slot`` (window scanned, none admissible), ``budget`` (cut)
    stuck: tuple[int, str] | None = None


class EMSMapper:
    """Place-and-route modulo scheduler for one CGRA, constrained to a page
    layout when given one (None: the whole array), probing with one
    :class:`Budget` tier."""

    #: :attr:`_Attempt.stuck` of the probe that just failed — what
    #: :class:`~repro.compiler.search.LadderReport` shows for its rung
    stuck: tuple[int, str] | None = None

    def __init__(
        self,
        cgra: CGRA,
        layout: PageLayout | None = None,
        config: MapperConfig | None = None,
        probes=None,
        *,
        budget: Budget = FULL_BUDGET,
    ) -> None:
        if layout is not None and layout.cgra is not cgra:
            raise MappingError("layout was built for a different CGRA instance")
        self.cgra = cgra
        self.layout = layout
        self.config = config or MapperConfig()
        self.budget = budget
        #: the :class:`~repro.compiler.search.DfgProbes` every probe is
        #: looked up in first, or None: every probe runs
        self.probes = probes
        self._scope: tuple | None = None
        self.allowed_pes = covered_pes(cgra, layout)
        self._rank_targets: dict[int, int] = {}
        # Integer-domain hot-path tables (see GridIndex/RoutingContext):
        # everything the placer and router touch per candidate is an
        # indexed load over these, never a Coord hash.
        gi = cgra.grid_index
        self._gi = gi
        self._allowed_ids: tuple[int, ...] = tuple(
            gi.id_of[pe] for pe in self.allowed_pes
        )
        # Capability masks (None on homogeneous fabrics: every filter below
        # degenerates to the original code path, bit for bit).
        self._mem_ok = cgra.class_mask(OpClass.MEM)
        self._alu_ok = cgra.class_mask(OpClass.ALU)
        self._route_ok = cgra.class_mask(OpClass.ROUTE)
        self._route_ctx = routing_context(cgra, layout)
        # escape direction (pe -> nb) shares the router's allowed-move
        # table, arrival direction (nb -> pe) its read table
        self._esc_ids = self._route_ctx.allowed_moves
        self._arr_ids = self._route_ctx.readable_from
        # Rank of each PE id along the dataflow direction of the fabric: its
        # page's ring index (None on the whole array).  Anchor-less sources
        # prefer low ranks and anchor-less sinks high ranks, so chains flow
        # forward and never start in the last page of the chain, which the
        # ring constraint makes a dataflow sink.
        if layout is None:
            self._rank_ids = None
        else:
            self._rank_ids = [0] * gi.num_pes
            for pe in self.allowed_pes:
                self._rank_ids[gi.id_of[pe]] = layout.page_of[pe]

    # -- the (II, attempt) ladder as data ------------------------------------------
    #
    # The mapper knows what one probe is; what a *ladder* is — the walk over
    # the lattice {(ii, attempt)}, first success wins — lives in
    # :func:`repro.compiler.search.climb_ladder` alone.  The helpers below
    # are the pieces that driver asks for: start rung, rung width, base
    # orders, and the exact per-(ii, attempt) op order.

    def ladder_rungs(self, dfg: DFG) -> tuple[int, int]:
        """``(first, last)`` II rung of the ladder: the MII, and
        ``config.max_ii`` — on a paged mapper (chain, ring, page-need
        prefix, hier) at most the II ceiling, :attr:`~repro.compiler.feas.
        IIBound.ceiling`.  First > last is a ladder with no rung.

        Raises :class:`~repro.util.errors.LadderExhausted` for DFGs that
        can never fit, before any rung is probed.
        """
        cap = slot_capacity(self.cgra, self.layout)
        bound = ii_lower_bound(
            dfg,
            num_pes=cap.pes,
            mem_slots=cap.bus_ports,
            mem_capable_pes=cap.mem_pes,
            max_ii=self.config.max_ii,
        )
        max_ii = self.config.max_ii
        if self.layout is not None:
            max_ii = min(max_ii, bound.ceiling)
        return bound.mii, max_ii

    def attempt_orders(self, dfg: DFG) -> list[list[int]]:
        """The three base op orders tried at every II rung.

        Reverse dataflow order places consumers before producers, so when
        an op is placed every outgoing edge routes immediately — a value
        can never get trapped by later placements stealing its escape
        slots.  Forward dataflow and slack orders behave better on
        recurrence-heavy graphs, so all three are tried before bumping the
        II; attempts beyond the three are perturbations of the first.
        """
        return [list(order) for order in _dfg_tables(dfg).orders]

    def attempt_order(
        self,
        orders: Sequence[Sequence[int]],
        start_ii: int,
        ii: int,
        attempt: int,
    ) -> list[int]:
        """The op order of lattice point (*ii*, *attempt*).

        Perturbed attempts draw from one seeded rng stream in lexicographic
        (ii, attempt) order counted from *start_ii*, so the order at a
        point depends only on how many perturbed attempts precede it.
        Each perturbation consumes a fixed amount of rng state (the order
        length never changes), so any probe can replay the stream from the
        seed: burn the preceding perturbations on scratch copies, then
        apply the real one.  The ladder is walked in order, so one
        incremental stream would draw the same orders; the indexed form is
        kept because it makes a probe a pure function of its lattice point
        (no rng state in the driver, none to get wrong in a subclass that
        widens a rung), because it is the stream every stored artifact's
        bytes came from, and because ``tests/test_search.py::
        TestAttemptOrderReplay`` pins it against the incremental draw.
        """
        if attempt < len(orders):
            return list(orders[attempt])
        per_ii = self.config.attempts_per_ii - len(orders)
        preceding = (ii - start_ii) * per_ii + (attempt - len(orders))
        rng = PCG64Stream(self.config.seed)
        for _ in range(preceding):
            self._perturb(list(orders[0]), rng)
        order = list(orders[0])
        self._perturb(order, rng)
        return order

    def lattice_attempts_per_ii(self) -> int:
        """Width of one II rung of the (II, attempt) lattice.  Backends
        with extra per-rung probes (:class:`~repro.compiler.hier.
        HierMapper`) widen it; the ladder driver sizes its rank lattice
        from it instead of assuming ``config.attempts_per_ii``."""
        return self.config.attempts_per_ii

    def run_lattice_attempt(
        self,
        dfg: DFG,
        start_ii: int,
        ii: int,
        attempt: int,
        orders: Sequence[Sequence[int]],
    ) -> Mapping | None:
        """Run the single lattice probe (*ii*, *attempt*) — the one probe
        entry point of the ladder driver."""
        order = self.attempt_order(orders, start_ii, ii, attempt)
        return self._try_map(dfg, ii, order)

    # -- op ordering ---------------------------------------------------------------

    @staticmethod
    def _priority_order(dfg: DFG, asap: dict, alap: dict) -> list[int]:
        """Slack order: ops on the critical path (zero slack) first; among
        equals, deeper (later-ASAP) ops later so producers tend to precede
        consumers."""
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (alap[v] - asap[v], asap[v], v),
        )

    @staticmethod
    def _dataflow_order(dfg: DFG, asap: dict, alap: dict) -> list[int]:
        """Topological (ASAP) order with low-slack ops first within a
        level: each op is placed while its producers' neighbourhoods still
        have routing headroom."""
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (asap[v], alap[v] - asap[v], v),
        )

    @staticmethod
    def _reverse_dataflow_order(dfg: DFG, asap: dict, alap: dict) -> list[int]:
        """Deepest ops (stores) first; producers placed after all their
        consumers, so every edge is routed the moment its producer lands."""
        return sorted(
            materialized_ops(dfg),
            key=lambda v: (-alap[v], alap[v] - asap[v], v),
        )

    @staticmethod
    def _perturb(order: list[int], rng) -> None:
        """Swap a few random pairs — cheap order diversification between
        restart attempts."""
        n = len(order)
        for _ in range(max(1, n // 4)):
            i, j = int(rng.integers(n)), int(rng.integers(n))
            order[i], order[j] = order[j], order[i]

    # -- one attempt -----------------------------------------------------------------

    def probe_scope(self) -> tuple:
        """What a probe of this mapper reads besides its arguments: the
        fabric, the layout every constraint is derived from — covered
        pages in ring order, page shape, wrap link — and the budget tier.
        With the DFG, the II and the op order it is the probe's identity."""
        scope = self._scope
        if scope is None:
            layout = self.layout
            scope = self._scope = (
                self.cgra.fingerprint(),
                None
                if layout is None
                else (
                    tuple(map(layout.page_origin, range(layout.num_pages))),
                    layout.shape,
                    layout.allow_wrap,
                ),
                self.budget,
            )
        return scope

    def _try_map(self, dfg: DFG, ii: int, order: list[int]) -> Mapping | None:
        """One probe: through :attr:`probes` when there is one.  A miss runs
        :meth:`_probe` and stores what it returned; a hit rebuilds that on
        this mapper's own ``cgra`` / *dfg* objects (fresh dicts over the
        immutable placements and routes) and restores :attr:`stuck`."""
        stats = counters()
        probes = self.probes
        if probes is not None:
            if probes.epoch is not dfg._adjacency():
                raise MappingError(
                    f"the probe memo was bound to another DFG than {dfg.name!r}"
                )
            key = (self.probe_scope(), ii, tuple(order))
            outcome = probes.get(key)
            if outcome is not None:
                stats.probes_shared += 1
                placements, routes = outcome
                if placements is None:
                    self.stuck = routes
                    return None
                return Mapping(self.cgra, dfg, ii, dict(placements), dict(routes))
        stats.probes_run += 1
        mapping = self._probe(dfg, ii, order)
        if probes is not None:
            probes.put(
                key,
                (None, self.stuck)
                if mapping is None
                else (dict(mapping.placements), dict(mapping.routes)),
            )
        return mapping

    def _probe(self, dfg: DFG, ii: int, order: list[int]) -> Mapping | None:
        asap = _dfg_tables(dfg).asap
        self._rank_targets = self._spread_targets(dfg)
        horizon = max(asap.values(), default=0) + self.budget.horizon_factor * ii
        st = _Attempt(ReservationTable(self.cgra, ii, self.layout), counters())
        for op_id in order:
            if not self._place_op(dfg, ii, st, op_id, asap, horizon):
                self.stuck = st.stuck
                return None
        coords = self._gi.coords
        placements = {
            op_id: Placement(op_id, coords[pe_id], t)
            for op_id, (pe_id, t) in st.placements.items()
        }
        return Mapping(self.cgra, dfg, ii, placements, st.routes)

    def _spread_targets(self, dfg: DFG) -> dict[int, int]:
        """Target page (fabric rank) per materialized op under a layout.

        On a ring/chain-constrained fabric dataflow can only move forward
        through the page chain, so an op with *h* levels of computation
        still below it should sit *h* ranks before its sinks, and the plan
        is anchored at page 0: ``target = max_height - height``, so a kernel
        shallower than the chain packs onto a prefix and leaves the rest to
        other threads (§VII-B).  Ops that feed the same consumer share a
        height and thus a target, keeping affine groups together.  The plan
        depends on the chain length alone, so it is built once per length
        and graph.
        """
        if self.layout is None:
            return {}
        spread = _dfg_tables(dfg).spread
        n = self.layout.num_pages
        targets = spread.get(n)
        if targets is None:
            targets = spread.setdefault(n, _spread_targets(dfg, n - 1))
        return targets

    def _place_op(
        self,
        dfg: DFG,
        ii: int,
        st: _Attempt,
        op_id: int,
        asap: dict[int, int],
        horizon: int,
    ) -> bool:
        op = dfg.ops[op_id]
        pred_edges, succ_edges = self._placed_edges(dfg, st, op_id)
        t_lo = max(
            [asap[op_id]]
            + [
                st.placements[e.src][1] - e.distance * ii + 1
                for e in pred_edges
            ]
        )
        t_lo = max(t_lo, 0)
        t_hi = horizon
        for e in succ_edges:
            t_hi = min(t_hi, st.placements[e.dst][1] + e.distance * ii - 1)
        if t_lo > t_hi:
            st.stuck = (op_id, "window")
            return False
        if not pred_edges and not succ_edges and dfg.in_edges(op_id):
            # anchor-less non-source op: the roots of a reverse-order pass.
            # Placing them at bare ASAP leaves zero slack for the upstream
            # chain to route through the mesh; start them a margin later.
            t_lo = min(t_lo + self.budget.root_margin + ii // 2, t_hi)

        anchor_ids = [st.placements[e.src][0] for e in pred_edges] + [
            st.placements[e.dst][0] for e in succ_edges
        ]
        if op.is_memory:
            cap_mask = self._mem_ok
        elif op.opcode is Opcode.ROUTE:
            cap_mask = self._route_ok
        else:
            cap_mask = self._alu_ok
        candidates = self._candidate_pes(anchor_ids, op_id, cap_mask)
        if not candidates:
            st.stuck = (op_id, "no-pe")
            return False

        # Cost-based selection: tentatively commit feasible candidates,
        # score them, keep the best.  Each extra cycle of gap costs a route
        # slot, so time and route length are the same currency; the escape
        # term keeps producers' neighbourhoods breathable so later
        # consumers can still be reached (greedy dead-end avoidance).
        #
        # Where before when: one mask per cycle answers, for every
        # candidate at once, the frontier question each trial would ask of
        # its edges (_candidate_mask).  A candidate outside it is refuted
        # here, counted exactly like a refuted trial, so the eval-budget /
        # candidate-cap cuts fall where they would without the mask.
        best: tuple[float, int, int, list[Route]] | None = None
        feasible_seen = 0
        evals = 0
        mrt = st.mrt
        stats = st.stats
        budget = self.budget
        st.fronts = {}
        is_mem = op.is_memory
        st.op = self._op_facts(dfg, st, op_id, is_mem)
        # what the masks sweep from: every holder of each placed
        # producer's value at each distance, and each placed consumer
        held = {}
        for e in pred_edges:
            src_id, src_t = st.placements[e.src]
            holders = self._holders(dfg, st, e, src_id, src_t - e.distance * ii)
            held[e.src, e.distance] = [(s_id, s_t) for s_id, s_t, _ in holders]
        pred_holders = list(held.values())
        succ_anchors = [
            (*st.placements[e.dst], e.distance * ii) for e in succ_edges
        ]
        floors = cost_floors(t_lo, t_hi, pred_holders, succ_anchors)
        for t in range(t_lo, t_hi + 1):
            floor = floors[t - t_lo]
            if best is not None and floor >= best[0]:
                break  # no trial from here on can cost less
            mask, exact = self._candidate_mask(st, t, pred_holders, succ_anchors)
            for pe in candidates:
                stats.placement_probes += 1
                if not mrt.slot_free_id(pe, t):
                    continue
                if is_mem and not mrt.bus_free_id(pe, t):
                    continue
                evals += 1
                if mask >> pe & 1:
                    trial = self._trial_cost(
                        dfg, ii, st, op_id, pe, t, pred_edges, succ_edges, exact
                    )
                else:
                    stats.trial_commits += 1
                    stats.trials_refuted += 1
                    trial = None
                if trial is not None:
                    cost = trial[0] + 0.25 * (t - t_lo)
                    if best is None or cost < best[0]:
                        best = (cost, pe, t, trial[1])
                        if floor >= cost:
                            break
                    feasible_seen += 1
                if feasible_seen >= budget.candidate_cap:
                    break
                if evals >= budget.eval_budget:
                    break
            if feasible_seen >= budget.candidate_cap:
                break
            if evals >= budget.eval_budget:
                break
        if best is None:
            cut = evals >= budget.eval_budget
            st.stuck = (op_id, "budget" if cut else "no-slot")
            return False
        _, pe, t, routes = best
        self._replay(dfg, st, op_id, pe, t, routes)
        return True

    @staticmethod
    def _placed_edges(dfg: DFG, st: _Attempt, op_id: int):
        """The edges of *op_id* that are routed when it is placed: from a
        placed (non-constant) producer and to a placed consumer —
        ``(pred_edges, succ_edges)``.  No edge is a self-loop
        (:meth:`~repro.dfg.graph.DFG.add_edge`)."""
        pred_edges = [
            e
            for e in dfg.in_edges(op_id)
            if e.src in st.placements
            and dfg.ops[e.src].opcode is not Opcode.CONST
        ]
        succ_edges = [e for e in dfg.out_edges(op_id) if e.dst in st.placements]
        return pred_edges, succ_edges

    def _candidate_mask(
        self,
        st: _Attempt,
        t: int,
        pred_holders: list[list[tuple[int, int]]],
        succ_anchors: list[tuple[int, int, int]],
    ) -> tuple[int, bool]:
        """``(mask, exact)`` for the candidates of cycle *t*: bit ``pe`` of
        *mask* is clear only if placing the op on ``(pe, t)`` leaves some
        edge unreachable — :meth:`_commit_candidate`'s pre-claim check
        would refute it.  The mask is the frontier half of
        :meth:`RoutingContext.reachable` asked once per anchored endpoint
        instead of once per candidate: per pred edge the readers within
        reach of any holder of the value (*pred_holders*), per succ edge
        the PEs the placed consumer ``(pe, time, distance * II)`` of
        *succ_anchors* can still be reached from, edges AND-ed.

        *exact* holds while no holder/consumer gap exceeds the II — where
        ``reachable`` has nothing to ask beyond its frontier, so a set bit
        *is* the pre-claim check passed for these edges.  A longer gap
        (the pigeonhole half is per pair) leaves the set bits of its cycle
        for the per-candidate predicate to decide."""
        ctx = self._route_ctx
        mrt = st.mrt
        fronts = st.fronts
        ii = mrt.ii
        mask = -1
        exact = True
        for holders in pred_holders:
            readers = 0
            for s_id, s_t in holders:
                readers |= ctx.reach_from(mrt, fronts, s_id, s_t, t)
                if t - s_t - 1 > ii:
                    exact = False
            mask &= readers
            if not mask:
                return 0, exact
        for dst_id, dst_t, shift in succ_anchors:
            mask &= ctx.reach_to(mrt, fronts, dst_id, dst_t, t - shift)
            if dst_t - (t - shift) - 1 > ii:
                exact = False
        return mask, exact

    def _replay(
        self, dfg: DFG, st: _Attempt, op_id: int, pe_id: int, t: int,
        routes: list[Route],
    ) -> None:
        """Commit a candidate by replaying the *routes* its trial found.
        Every trial starts from, and rolls back to, the table the op
        started from, so searching again would find them route for route;
        the trap check passed on this very state."""
        mrt = st.mrt
        mrt.claim_id(pe_id, t, memory=st.op.is_mem)
        for route in routes:
            commit_route(mrt, route.steps)
            st.routes[route.edge_id] = route
        st.placements[op_id] = (pe_id, t)

    def _trial_cost(
        self, dfg, ii, st, op_id, pe_id, t, pred_edges, succ_edges, prechecked
    ) -> tuple[float, list[Route]] | None:
        """Score a candidate slot by committing it and rolling back.

        Returns None when some edge cannot be routed from this slot, else
        the cost and the routes the commit made (for :meth:`_replay`).
        Cost = route slots consumed + congestion of this PE's 1-hop
        neighbourhood at the next cycle (the value's escape room).
        """
        st.stats.trial_commits += 1
        if not self._commit_candidate(
            dfg, ii, st, op_id, pe_id, t, pred_edges, succ_edges, prechecked
        ):
            return None
        # congestion terms, only in the directions with unrouted edges:
        # escape room at t+1 when some consumer is still unplaced, arrival
        # room at t-1 when some producer is still unplaced
        mrt = st.mrt
        blocked = 0
        if st.op.open_succ:
            for nb in self._esc_ids[pe_id]:
                if not mrt.slot_free_id(nb, t + 1):
                    blocked += 1
        if st.op.open_pred and t >= 1:
            for nb in self._arr_ids[pe_id]:
                if not mrt.slot_free_id(nb, t - 1):
                    blocked += 1
        routes = self._rollback(dfg, st, op_id, pred_edges, succ_edges)
        route_slots = sum(len(route.steps) for route in routes)
        return route_slots + 0.6 * blocked, routes

    def _rollback(self, dfg, st, op_id, pred_edges, succ_edges) -> list[Route]:
        """Undo a committed candidate; the routes it held, released."""
        pe_id, t = st.placements.pop(op_id)
        routes = [st.routes.pop(e.id) for e in (*pred_edges, *succ_edges)]
        for route in routes:
            release_route(st.mrt, route.steps)
        st.mrt.release_id(pe_id, t, memory=st.op.is_mem)
        return routes

    def _candidate_pes(
        self,
        anchor_ids: list[int],
        op_id: int | None = None,
        cap_mask: tuple[bool, ...] | None = None,
    ) -> list[int]:
        """Candidate PE ids, closest-to-anchors first.  The final tie-break
        is the PE id itself, which equals the old Coord (row, col) ordering
        — row-major ids are order-isomorphic to Coord's lexicographic
        order, so candidate order is unchanged from the Coord-domain
        placer.

        The pool is pre-filtered by the op's capability mask (heterogeneous
        fabrics only) — illegality is ruled out before enumeration instead
        of discovered per probe."""
        pool: Sequence[int] = self._allowed_ids
        if cap_mask is not None:
            pool = [pid for pid in pool if cap_mask[pid]]
        target = self._rank_targets.get(op_id) if op_id is not None else None
        ranks = self._rank_ids
        man = self._gi.manhattan
        if ranks is not None and target is not None:
            rank_bias = lambda pid: abs(ranks[pid] - target)  # noqa: E731
        else:
            rank_bias = lambda pid: 0  # noqa: E731
        if anchor_ids:
            # Manhattan is symmetric: the anchors' rows, summed column-wise
            dist = [sum(col) for col in zip(*[man[a] for a in anchor_ids])]
            return sorted(pool, key=lambda pid: (dist[pid], rank_bias(pid), pid))
        if ranks is not None and target is not None:
            return sorted(pool, key=lambda pid: (rank_bias(pid), pid))
        return list(pool)

    def _commit_candidate(
        self,
        dfg: DFG,
        ii: int,
        st: _Attempt,
        op_id: int,
        pe_id: int,
        t: int,
        pred_edges,
        succ_edges,
        prechecked: bool = False,
    ) -> bool:
        """Claim the op slot and route all its placed-neighbour edges;
        roll back entirely on any failure, including when the commit would
        *trap* another placed op by taking the last free arrival/escape
        slot one of its unrouted edges needs.

        Nothing is claimed when some edge is already unreachable from every
        holder of its value on the table as it stands: claiming the op and
        routing the other edges only takes slots away.  (A tap committed
        later in this trial lies on a walk from one of those holders
        through slots free now, so that holder's frontier covers it.)
        *prechecked* says the caller's :meth:`_candidate_mask` has already
        answered that, exactly, for this candidate."""
        is_mem = st.op.is_mem
        mrt = st.mrt
        ctx = self._route_ctx

        # (edge, producer PE, producer time in the consumer's frame,
        # consumer PE, consumer time), in routing order
        edges = []
        for e in pred_edges:
            src_id, src_t = st.placements[e.src]
            edges.append((e, src_id, src_t - e.distance * ii, pe_id, t))
        for e in succ_edges:
            edges.append((e, pe_id, t - e.distance * ii, *st.placements[e.dst]))

        if not prechecked:
            for e, src_id, src_t, dst_id, dst_t in edges:
                if not any(
                    ctx.reachable(mrt, st.fronts, s_id, s_t, dst_id, dst_t)
                    for s_id, s_t, _ in self._holders(dfg, st, e, src_id, src_t)
                ):
                    st.stats.trials_refuted += 1
                    return False

        mrt.claim_id(pe_id, t, memory=is_mem)
        # Routes go straight into st.routes, where the holders of the next
        # edge's value are read from; edges with zero steps still get a
        # Route record so downstream consumers can distinguish "routed,
        # direct" from "not yet routed".  (Edges between unplaced endpoints
        # are routed when the second endpoint is placed.)
        routed: list[int] = []
        ok = True
        for e, src_id, src_t, dst_id, dst_t in edges:
            found = find_route_shared_ids(
                ctx,
                mrt,
                self._holders(dfg, st, e, src_id, src_t),
                dst_id,
                dst_t,
                max_expansions=self.budget.route_budget,
            )
            if found is None:
                ok = False
                break
            steps, tap = found
            commit_route(mrt, steps)
            st.routes[e.id] = Route(e.id, steps, tap)
            routed.append(e.id)
        if ok:
            st.placements[op_id] = (pe_id, t)
            if self._traps_pending_edge(ii, st):
                del st.placements[op_id]
                ok = False
        if not ok:
            for edge_id in routed:
                release_route(mrt, st.routes.pop(edge_id).steps)
            mrt.release_id(pe_id, t, memory=is_mem)
        return ok

    def _holders(
        self, dfg: DFG, st: _Attempt, e, src_id: int, src_time_eff: int
    ) -> list[tuple[int, int, RouteStep | None]]:
        """Tappable holders of the value edge *e* carries, as ``(pe id,
        time, tap)``: the producer — at *src_time_eff*, its time in the
        consumer's frame — plus every step of the sibling routes already in
        ``st.routes`` that carry it (fanout sharing)."""
        id_of = self._gi.id_of
        routes = st.routes
        out = [(src_id, src_time_eff, None)]
        for e2 in dfg.out_edges(e.src):
            if e2.distance == e.distance and e2.id in routes:
                for s2 in routes[e2.id].steps:
                    out.append((id_of[s2.pe], s2.time, s2))
        return out

    @staticmethod
    def _op_facts(dfg: DFG, st: _Attempt, op_id: int, is_mem: bool) -> _OpFacts:
        """:class:`_OpFacts` of *op_id*; ``st.watch`` takes it as placed
        (only its own entry and its neighbours' can change)."""
        placements = st.placements
        tables = _dfg_tables(dfg)
        trap_in, trap_out = tables.trap_in, tables.trap_out
        for u_id in (op_id, *trap_in[op_id], *trap_out[op_id]):
            if u_id != op_id and u_id not in placements:
                continue
            pending_in = sum(s not in placements and s != op_id for s in trap_in[u_id])
            open_out = any(d not in placements and d != op_id for d in trap_out[u_id])
            if pending_in or open_out:
                st.watch[u_id] = (min(pending_in, 2), open_out)
            else:
                st.watch.pop(u_id, None)
        return _OpFacts(
            is_mem,
            any(d not in placements for d in trap_out[op_id]),
            any(e.src not in placements for e in dfg.in_edges(op_id)),
        )

    def _traps_pending_edge(self, ii: int, st: _Attempt) -> bool:
        """Would the current reservations starve a placed op whose edges
        are not all routed yet?

        A placed op with an unplaced producer needs at least as many free
        arrival slots (its 1-hop in-neighbourhood at ``t-1``) as it has
        unrouted operands; one with an unplaced consumer needs at least one
        free escape slot at ``t+1`` for its value to leave.  Rejecting
        candidates that exhaust these slots is what keeps the greedy from
        painting itself into a corner on load/const-heavy graphs.  The ops
        to check are ``st.watch``.
        """
        mrt = st.mrt
        arr_ids = self._arr_ids
        esc_ids = self._esc_ids
        occ = mrt.occupied
        num_pes = mrt.num_pes
        placements = st.placements
        for u_id, (need, open_out) in st.watch.items():
            u_pe, u_t = placements[u_id]
            if need:
                base = ((u_t - 1) % ii) * num_pes
                free = 0
                for nb in arr_ids[u_pe]:
                    if not occ[base + nb]:
                        free += 1
                        if free >= need:
                            break
                if free < need:
                    return True
            if open_out:
                base = ((u_t + 1) % ii) * num_pes
                for nb in esc_ids[u_pe]:
                    if not occ[base + nb]:
                        break
                else:
                    return True
        return False


def _dfg_tables(dfg: DFG) -> _DfgTables:
    """The per-DFG invariants of a probe — ASAP times, base orders, the
    trap check's operand-source / consumer tables, spread targets — built
    once per graph and adjacency epoch (:meth:`~repro.dfg.graph.DFG.
    derived`), so the ~1 000 probes of a job's 3–5 ladders share them."""
    return dfg.derived(_build_dfg_tables)


def _build_dfg_tables(dfg: DFG) -> _DfgTables:
    ins, outs = dfg._adjacency()
    ops = dfg.ops
    trap_in = {
        u: tuple(
            e.src
            for e in edges
            if ops[e.src].opcode is not Opcode.CONST
        )
        for u, edges in ins.items()
    }
    trap_out = {u: tuple(e.dst for e in edges) for u, edges in outs.items()}
    asap = asap_times(dfg)
    alap = alap_times(dfg, max(asap.values(), default=0))
    orders = tuple(
        tuple(order(dfg, asap, alap))
        for order in (
            EMSMapper._reverse_dataflow_order,
            EMSMapper._dataflow_order,
            EMSMapper._priority_order,
        )
    )
    return _DfgTables(asap, orders, trap_in, trap_out, {})


def _spread_targets(dfg: DFG, top: int) -> dict[int, int]:
    """:meth:`EMSMapper._spread_targets` on a chain whose last rank is
    *top*."""
    # Height on the SCC condensation of the *full* dependence graph
    # (loop-carried edges included): a recurrence cycle is one node, so
    # all its ops share a target page — on a chain topology a cycle can
    # never span pages, data cannot flow backwards.
    succ: dict[int, dict[int, None]] = {v: {} for v in dfg.ops}
    for e in materialized_edges(dfg):
        succ[e.src][e.dst] = None
    components = strong_components(succ)  # successors come first
    scc = {v: i for i, members in enumerate(components) for v in members}
    height: list[int] = []
    for i, members in enumerate(components):
        below = {scc[w] for v in members for w in succ[v]} - {i}
        height.append(1 + max(height[j] for j in below) if below else 0)
    # When the graph is deeper than the chain, compress heights
    # proportionally so every page carries a share of the levels
    # instead of everything deep squashing onto page 0.
    max_h = max(height, default=0)
    scale = min(1.0, top / max_h) if max_h else 0.0
    last = round(max_h * scale)
    return {v: last - round(height[scc[v]] * scale) for v in materialized_ops(dfg)}


def map_dfg(
    dfg: DFG,
    cgra: CGRA,
    *,
    config: MapperConfig | None = None,
    search_log=None,
    probes=None,
) -> Mapping:
    """Map *dfg* onto the whole *cgra* with the baseline (unconstrained)
    compiler.  This produces the paper's ``II_b`` reference points.

    ``search_log`` collects the ladder's
    :class:`~repro.compiler.search.LadderReport`; *probes* is the
    :class:`~repro.compiler.search.DfgProbes` of *dfg* to share probe
    outcomes through (this ladder never reads a page size).
    """
    from repro.compiler.search import climb_ladder

    return climb_ladder(EMSMapper(cgra, None, config, probes), dfg, log=search_log)
