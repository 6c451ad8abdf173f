"""Operand routing on the time-extended CGRA.

Routing finds, for a DFG edge whose producer and consumer are already
placed, a chain of *routing PEs* (§II) that carries the value one mesh hop
per cycle from the producer's output to some PE adjacent to the consumer at
the cycle before the consumer fires.  A PE may also route to itself, which
models holding the value in place for a cycle.

The search runs on the time-extended graph: states are ``(PE, time)``, a
transition advances time by one cycle and moves to a 1-hop-reachable PE
whose modulo slot is free in the reservation table.  Under a page layout
transitions obey the §VI-B ring-topology constraint
(:func:`~repro.compiler.constraints.ring_hop_ok`: values may only stay
within a page or cross to the ring-successor page).

Both searches start from the query's *corridor*: the PEs a walk may stand
on at each step and still end on a goal PE at the right cycle, one ``int``
per step — a forward sweep from the holder (:meth:`RoutingContext.
reachable`) and a backward one from the consumer (:meth:`RoutingContext.
corridor`), one step per cycle: five shift-and-mask terms over the whole
set (:func:`_hop`; every allowed move is a hold or a 4-mesh hop, so each
direction is one shift of the row-major ids) AND-ed with the reservation
table's free-PE bitmask of that cycle's slot.

A route shorter than the II visits every modulo slot at most once, so it
cannot collide with itself and the backward sweep *is* the search: the
route is the greedy walk that, at every step, takes the first move of the
hint-ordered move table that stays inside the corridor.  (That is, step
for step, the path a layered breadth-first search in the same move order
returns — ``tests/test_compiler_units.py`` keeps that search as the
reference.)

When a route is at least as long as the II, a PE could collide with the
route's own earlier steps modulo II, and the search is a depth-first one
that tracks the slots used along the partial path.  Before it spends its
budget, :meth:`RoutingContext.reachable` asks the two cheaper questions it
can only fail on: is there *any* walk of the required length through free
modulo slots, and do the steps that share a modulo slot have enough
distinct corridor PEs between them?  The placer asks the same predicate
for every edge of a candidate before claiming anything
(:mod:`repro.compiler.ems`) — and asks its first question of all
candidates at once: :meth:`RoutingContext.reach_from` and
:meth:`RoutingContext.reach_to` return, as one bitmask, every consumer PE
a holder's frontier reaches and every holder PE a consumer's corridor is
reachable from.

The searches run entirely on integer PE ids from the fabric's
:class:`~repro.arch.interconnect.GridIndex`: a :class:`RoutingContext`
pins one (fabric, page layout) pair (:func:`routing_context` keeps one
per pair for every mapper, ladder, job and thread that maps on it) and
memoizes the per-PE allowed-move lists (and, as shift masks, those moves,
their reverse and the reads), the per-(PE, destination-hint) greedy move
orderings, and the per-destination goal tables (goal PEs sorted by PE id, a
membership mask, the min-Manhattan-to-goal pruning bound, and the greedy
destination *hint*).
Route choice is a pure function of these explicit tables — the search
itself never consults set iteration order.  A search returns its steps as
:class:`~repro.compiler.mapping.RouteStep` records, the only place a
``Coord`` appears.
"""

from __future__ import annotations

from functools import lru_cache

from repro.arch.capability import OpClass
from repro.arch.cgra import CGRA
from repro.compiler.constraints import ring_hop_ok
from repro.compiler.mapping import RouteStep
from repro.compiler.mrt import ReservationTable
from repro.core.paging import PageLayout
from repro.util.errors import ArchitectureError
from repro.util.spans import MapperCounters, counters

__all__ = [
    "RoutingContext",
    "commit_route",
    "cost_floors",
    "release_route",
    "routing_context",
]

#: Pruning distance for states when the goal set is empty (no PE can ever
#: satisfy ``dist > remaining`` being False): larger than any grid distance.
_UNREACHABLE = 1 << 30

#: (row, col) offset of a step -> its index among _shift_masks' masks
_DIRECTIONS = {(0, 0): 0, (-1, 0): 1, (1, 0): 2, (0, -1): 3, (0, 1): 4}

#: (goal ids sorted, membership mask, min-dist-to-goal, hint, goal bitmask)
_GoalEntry = tuple[
    tuple[int, ...], tuple[bool, ...], tuple[int, ...], int | None, int
]


class RoutingContext:
    """Memoized integer-domain routing tables for one (fabric, layout).

    Built once per pair (:func:`routing_context`) and consulted millions
    of times: the move and read tables and their shift masks at
    construction, the rest lazily on first use, all reused by every later
    mapper on the pair.  A table is a pure function of the pair, so two
    threads that fill one entry at once store equal values and either may
    win.
    """

    __slots__ = (
        "gi",
        "layout",
        "allowed_moves",
        "readable_from",
        "move_masks",
        "rev_masks",
        "read_masks",
        "_route_mask",
        "_moves_tables",
        "_goals",
    )

    def __init__(self, cgra: CGRA, layout: PageLayout | None = None) -> None:
        gi = cgra.grid_index
        self.gi = gi
        self.layout = layout
        coords = gi.coords
        # A transition *into* q parks a route step on q, so q must be
        # ROUTE-capable; homogeneous fabrics have no mask and keep the
        # original (byte-identical) tables.
        route_mask = cgra.class_mask(OpClass.ROUTE)
        self._route_mask = route_mask
        if layout is None and route_mask is None:
            # GridIndex.reach1_ids order: self first, then the neighbours
            self.allowed_moves: tuple[tuple[int, ...], ...] = gi.reach1_ids
        else:
            self.allowed_moves = tuple(
                tuple(
                    q
                    for q in gi.reach1_ids[p]
                    if (route_mask is None or route_mask[q])
                    and (
                        layout is None
                        or ring_hop_ok(layout, coords[p], coords[q])
                    )
                )
                for p in range(gi.num_pes)
            )
        # readable_from[c]: the PEs whose output a consumer on c can read
        # (its goal PEs, in reach1_ids order; reading parks nothing, so no
        # ROUTE mask)
        if layout is None:
            self.readable_from: tuple[tuple[int, ...], ...] = gi.reach1_ids
        else:
            self.readable_from = tuple(
                tuple(
                    p
                    for p in gi.reach1_ids[c]
                    if ring_hop_ok(layout, coords[p], coords[c])
                )
                for c in range(gi.num_pes)
            )
        # the sweeps' steps as shift masks (_hop): moves, reverse moves, reads
        moves = [(p, q) for p, qs in enumerate(self.allowed_moves) for q in qs]
        self.move_masks = _shift_masks(cgra, moves)
        self.rev_masks = _shift_masks(cgra, [(q, p) for p, q in moves])
        self.read_masks = _shift_masks(
            cgra, [(p, c) for c, ps in enumerate(self.readable_from) for p in ps]
        )
        # hint -> full per-PE move table (one indexed load per expansion in
        # the route searches instead of a method call + dict probe)
        self._moves_tables: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._goals: dict[int, _GoalEntry] = {}  # keyed by destination PE id

    def moves_table(self, hint_id: int | None) -> tuple[tuple[int, ...], ...]:
        """Per-PE legal one-cycle moves, greedily ordered toward the
        destination hint (stable sort by Manhattan-to-hint, so base
        adjacency order breaks ties exactly as the Coord-domain router
        did).  The route searches index this tuple directly in their inner
        loops."""
        if hint_id is None:
            return self.allowed_moves
        tbl = self._moves_tables.get(hint_id)
        if tbl is None:
            key = self.gi.manhattan[hint_id].__getitem__
            tbl = tuple(tuple(sorted(qs, key=key)) for qs in self.allowed_moves)
            self._moves_tables[hint_id] = tbl
        return tbl

    def goal_table(self, dst_id: int) -> _GoalEntry:
        """Goal PEs from which the consumer at *dst_id* can read the value,
        sorted by PE id, plus a membership mask, the per-PE minimum
        Manhattan distance to any goal (the depth-first search's pruning
        bound), the greedy destination hint the move ordering anchors on,
        and the membership mask again as an int (for the corridor sweeps).

        The hint is pinned to the anchor the v1 Coord-domain router used
        (the first element of its goal *set*): route tie-breaks are part of
        the mapper's observable behaviour, and the committed artifact store
        is content-addressed over it — changing the hint rule would change
        routes and invalidate every stored artifact.  It is computed once
        here and memoized, so the search itself only ever reads this
        explicit table.
        """
        entry = self._goals.get(dst_id)
        if entry is None:
            gi = self.gi
            coords = gi.coords
            unsorted_goal = self.readable_from[dst_id]
            goal = sorted(unsorted_goal)
            mask = [False] * gi.num_pes
            for g in goal:
                mask[g] = True
            # A multi-hop route can only *end* on a ROUTE-capable goal (the
            # last holder is a route step); pre-filtering tightens the
            # pruning bound.  The full mask stays as-is: a direct 1-cycle
            # producer->consumer read needs no route capability at all.
            if self._route_mask is None:
                search_goal = goal
            else:
                rm = self._route_mask
                search_goal = [g for g in goal if rm[g]]
            if search_goal:
                man = gi.manhattan
                min_dist = tuple(
                    min(man[q][g] for g in search_goal)
                    for q in range(gi.num_pes)
                )
                # legacy v1 anchor: first member of the goal built as a set
                # of Coords in reach1_ids order
                hint = gi.id_of[next(iter({coords[p] for p in unsorted_goal}))]
            else:
                min_dist = (_UNREACHABLE,) * gi.num_pes
                hint = None
            bits = sum(1 << g for g in goal)
            entry = (tuple(goal), tuple(mask), min_dist, hint, bits)
            self._goals[dst_id] = entry
        return entry

    def reachable(
        self,
        mrt: ReservationTable,
        fronts: dict[tuple[int, int], list[int]],
        src_id: int,
        t_src_eff: int,
        dst_id: int,
        t_dst: int,
    ) -> bool:
        """Necessary condition for :func:`find_route_ids` to succeed: some
        walk leaves ``(src_id, t_src_eff)``, takes one allowed move per
        cycle onto a slot free in *mrt*, and stands on a goal PE of
        *dst_id* at ``t_dst - 1`` — and, when the walk is longer than the
        II, the steps that share a modulo slot have enough distinct PEs to
        stand on.  The search budget is ignored, so ``False`` proves
        there is no route; for routes shorter than the II it is exact.

        ``fronts[(src_id, t_src_eff)][j]`` is the set of PEs (a bitmask)
        such a walk can stand on after *j* cycles; the backward sweeps of
        :meth:`corridor` live in the same dict.  Callers share one dict
        across queries for as long as *mrt* does not change."""
        gap = t_dst - t_src_eff
        if gap < 1:
            return False
        front = self._front(mrt, fronts, src_id, t_src_eff, gap)
        if not front[gap - 1] & self.goal_table(dst_id)[4]:
            return False
        ii = mrt.ii
        hops = gap - 1
        if hops <= ii:
            return True  # at most one step per modulo slot
        # Pigeonhole per modulo slot: the steps at times = r (mod II) claim
        # distinct PEs of slot r, and step j can only stand inside
        # front[j] & back[hops - j].  The walk found above puts a PE in
        # every one of those sets, so only a slot that several steps share
        # — the slots of the first hops - II steps — can run short.
        back = self.corridor(mrt, fronts, dst_id, t_dst, hops)
        for first in range(1, min(ii, hops - ii) + 1):
            sharing = range(first, gap, ii)
            room = 0
            for j in sharing:
                room |= front[j] & back[hops - j]
            if room.bit_count() < len(sharing):
                return False
        return True

    def _front(
        self,
        mrt: ReservationTable,
        fronts: dict[tuple[int, int], list[int]],
        src_id: int,
        t_src_eff: int,
        gap: int,
    ) -> list[int]:
        """The forward sweep from ``(src_id, t_src_eff)``, memoized in
        *fronts* and extended to at least *gap* sets."""
        front = fronts.get((src_id, t_src_eff))
        if front is None:
            front = fronts[(src_id, t_src_eff)] = [1 << src_id]
        if len(front) < gap:
            _sweep(
                front, self.move_masks, mrt.free_mask, mrt.ii,
                range(t_src_eff + len(front), t_src_eff + gap),
            )
        return front

    def reach_from(
        self,
        mrt: ReservationTable,
        fronts: dict[tuple[int, int], list[int]],
        src_id: int,
        t_src_eff: int,
        t_dst: int,
    ) -> int:
        """Every *dst_id* for which :meth:`reachable` ``(src_id, t_src_eff,
        dst_id, t_dst)`` passes its frontier test, as one bitmask: the
        holder's frontier pushed one read further.  That is the whole of
        ``reachable`` wherever the route is no longer than the II."""
        gap = t_dst - t_src_eff
        if gap < 1:
            return 0
        front = self._front(mrt, fronts, src_id, t_src_eff, gap)
        return _hop(front[gap - 1], self.read_masks)

    def reach_to(
        self,
        mrt: ReservationTable,
        fronts: dict[tuple[int, int], list[int]],
        dst_id: int,
        t_dst: int,
        t_src_eff: int,
    ) -> int:
        """:meth:`reach_from` seen from the consumer: every *src_id* for
        which ``reachable(src_id, t_src_eff, dst_id, t_dst)`` passes its
        frontier test — the consumer's :meth:`corridor` pulled one move
        back (a holder's own slot need not be free)."""
        gap = t_dst - t_src_eff
        if gap < 1:
            return 0
        if gap == 1:
            return self.goal_table(dst_id)[4]
        back = self.corridor(mrt, fronts, dst_id, t_dst, gap - 1)
        return _hop(back[gap - 2], self.rev_masks)

    def corridor(
        self,
        mrt: ReservationTable,
        fronts: dict[tuple[int, int], list[int]],
        dst_id: int,
        t_dst: int,
        hops: int,
    ) -> list[int]:
        """The backward half of a route query's corridor: ``back[k]``, for
        ``k < hops``, is the set of PEs (a bitmask) a walk may stand on at
        time ``t_dst - 1 - k`` — on a slot free in *mrt* — and still, one
        allowed move per cycle through free slots, stand on a goal PE of
        *dst_id* at ``t_dst - 1``.  It does not depend on where the walk
        started, so it is memoized in *fronts* under ``(~dst_id, t_dst)``
        (PE ids are non-negative: no clash with a forward frontier's key)
        on the terms :meth:`reachable` states."""
        key = (~dst_id, t_dst)
        back = fronts.get(key)
        ii = mrt.ii
        if back is None:
            last = self.goal_table(dst_id)[4] & mrt.free_mask[(t_dst - 1) % ii]
            back = fronts[key] = [last]
        if len(back) < hops:
            _sweep(
                back, self.rev_masks, mrt.free_mask, ii,
                range(t_dst - 1 - len(back), t_dst - 1 - hops, -1),
            )
        return back


@lru_cache(maxsize=64)
def routing_context(cgra: CGRA, layout: PageLayout | None = None) -> RoutingContext:
    """The shared :class:`RoutingContext` of (*cgra*, *layout*): the
    fabric is a frozen value and the experiments' layouts are shared
    objects (:func:`~repro.pipeline.compile.make_layout`, with their
    sub-chains and rings), so the tables warmed by one ladder serve the
    next ladders, jobs and slot threads on the same pair."""
    return RoutingContext(cgra, layout)


def _sweep(
    sets: list[int],
    step: tuple[int, ...],
    free: list[int],
    ii: int,
    times: range,
) -> None:
    """Extend *sets* by one bitmask per cycle of *times*: the PEs one
    *step* away from the previous set whose slot is free (:func:`_hop`,
    inlined: a call per step adds ~25 ms to the 1.1 s flat 4x4 suite)."""
    cols, stay, up, down, left, right = step
    bits = sets[-1]
    for t in times:
        bits = (bits & stay | bits >> cols & up | bits << cols & down
                | bits >> 1 & left | bits << 1 & right) & free[t % ii]
        sets.append(bits)


def _hop(bits: int, step: tuple[int, ...]) -> int:
    """The PEs one *step* away from some PE of *bits*."""
    cols, stay, up, down, left, right = step
    return (bits & stay | bits >> cols & up | bits << cols & down
            | bits >> 1 & left | bits << 1 & right)


def _shift_masks(cgra: CGRA, steps: list[tuple[int, int]]) -> tuple[int, ...]:
    """The one-cycle *steps* ``(from, to)`` as :func:`_hop` shifts them:
    ``(cols, stay, up, down, left, right)``, each mask the *to* PEs of its
    direction (row-major ids: up ``-cols``, down ``+cols``, left ``-1``,
    right ``+1``).  A step that is neither a hold nor a 4-mesh hop has no
    shift, and raises."""
    coords = cgra.grid_index.coords
    masks = [0] * 5
    for p, q in steps:
        (r0, c0), (r1, c1) = coords[p], coords[q]
        d = _DIRECTIONS.get((r1 - r0, c1 - c0))
        if d is None:
            raise ArchitectureError(f"{coords[p]} -> {coords[q]} is not a mesh hop")
        masks[d] |= 1 << q
    return (cgra.cols, *masks)


def find_route_shared_ids(
    ctx: RoutingContext,
    mrt: ReservationTable,
    sources: list[tuple[int, int, "RouteStep | None"]],
    dst_id: int,
    t_dst: int,
    *,
    max_expansions: int = 20000,
) -> tuple[tuple[RouteStep, ...], "RouteStep | None"] | None:
    """Route from the *best* of several value holders to the consumer.

    ``sources`` are ``(pe id, time, tap)`` triples: the producer itself
    (``tap=None``) and any sibling route steps already re-emitting the same
    value (fanout sharing — see :class:`~repro.compiler.mapping.Route`).
    Holders closest in time to the consumer are tried first, so shared
    chains are extended instead of duplicated.  Returns ``(steps, tap)``.
    """
    ordered = [s for s in sources if t_dst - s[1] >= 1]
    if len(ordered) > 1:
        # nearest holder (latest re-emission) first; stable, so sibling
        # steps keep their discovery order within a gap class
        ordered.sort(key=lambda s: t_dst - s[1])
    for pe_id, time, tap in ordered:
        steps = find_route_ids(
            ctx, mrt, pe_id, time, dst_id, t_dst, max_expansions=max_expansions
        )
        if steps is not None:
            return steps, tap
    return None


def find_route_ids(
    ctx: RoutingContext,
    mrt: ReservationTable,
    src_id: int,
    t_src_eff: int,
    dst_id: int,
    t_dst: int,
    *,
    max_expansions: int = 20000,
) -> tuple[RouteStep, ...] | None:
    """Route steps carrying a value from PE *src_id* (produced at
    consumer-frame time *t_src_eff*) to the consumer on PE *dst_id* at
    *t_dst*, through the free slots of *mrt* and the moves *ctx* allows
    (its page layout's ring hops and ROUTE-capable PEs).

    Returns the steps, one per cycle strictly between the two times (empty
    for a direct one-cycle link), or None when no route exists under the
    current reservations.  Steps at negative times are legal in the
    consumer frame; modulo arithmetic maps them onto the repeating
    schedule.  Nothing is claimed: the caller commits the steps
    (:func:`commit_route`).  A route at least as long as the II is a
    depth-first search of at most *max_expansions* states.
    """
    stats = counters()
    stats.route_calls += 1
    gap = t_dst - t_src_eff
    if gap < 1:
        return None
    _, goal_mask, min_dist, hint, _ = ctx.goal_table(dst_id)
    if gap == 1:
        return () if goal_mask[src_id] else None
    hops = gap - 1  # number of route steps, at times t_src_eff+1 .. t_dst-1
    if hops < mrt.ii:
        return _walk_route(ctx, mrt, src_id, t_src_eff, dst_id, t_dst, hint, stats)
    if not ctx.reachable(mrt, {}, src_id, t_src_eff, dst_id, t_dst):
        stats.routes_refuted += 1
        return None
    return _dfs_route(
        ctx, mrt, src_id, t_src_eff, goal_mask, min_dist, hint, hops,
        max_expansions, stats,
    )


def cost_floors(
    t_lo: int,
    t_hi: int,
    pred_holders: list[list[tuple[int, int]]],
    succ_anchors: list[tuple[int, int, int]],
) -> list[float]:
    """Lower bounds on the cost of the placer's trials, one per cycle of
    ``t_lo..t_hi``: entry ``t - t_lo`` bounds every trial at cycle *t* or
    later (a suffix minimum), from times alone.

    :func:`find_route_ids` lays one step per cycle strictly between a holder
    and its consumer, and a route that taps a sibling's step (the same
    value, the same distance) still stands on a chain of steps back to a
    holder that was there before the trial.  So the routes of one value
    cost at least their longest gap minus one: per entry of
    *pred_holders* (the holders of one placed producer's value at one
    distance, ``(pe, time)``) the gap from the latest holder before *t*;
    per distance of the op's own value, the gap to its latest placed
    consumer (*succ_anchors*: ``(pe, time, distance * II)``).  The
    congestion term is never negative; the placer's ``0.25 * (t - t_lo)``
    time term is added as it adds it, so float rounding keeps the bound."""
    ends: dict[int, int] = {}  # distance * II -> latest consumer time + it
    for _, dst_t, shift in succ_anchors:
        ends[shift] = max(ends.get(shift, 0), dst_t + shift)
    # one ascending sweep: the terms sum to active * (t - 1) - latest; a
    # step (holder time, gain over its value's previous, first?) counts from t > time
    steps = []
    for holders in pred_holders:
        prev = None
        for h in sorted(h for _, h in holders):
            steps.append((h, h - (prev or 0), prev is None))
            prev = h
    steps.sort()
    steps.append((t_hi + 1, 0, False))  # sentinel: t never passes it
    ends_sum, n_ends = sum(ends.values()), len(ends)
    floors = []
    active = latest = i = 0
    for t in range(t_lo, t_hi + 1):
        while steps[i][0] < t:
            _, gain, first = steps[i]
            latest, active, i = latest + gain, active + first, i + 1
        slots = active * (t - 1) - latest + ends_sum - n_ends * (t + 1)
        floors.append(slots + 0.25 * (t - t_lo))
    for i in range(len(floors) - 2, -1, -1):
        floors[i] = min(floors[i], floors[i + 1])
    return floors


def _steps_of(ctx: RoutingContext, path: list[int], t_src_eff: int):
    coords = ctx.gi.coords
    return tuple(
        [RouteStep(coords[p], t_src_eff + j + 1) for j, p in enumerate(path)]
    )


def _walk_route(
    ctx: RoutingContext,
    mrt: ReservationTable,
    src_id: int,
    t_src_eff: int,
    dst_id: int,
    t_dst: int,
    hint: int | None,
    stats: MapperCounters,
) -> tuple[RouteStep, ...] | None:
    """Short route: all step times are distinct modulo II (hops < II), so a
    path can never collide with itself and the corridor is the whole
    answer.  Walk it greedily, taking at every step the first move of the
    hint-ordered table that stays inside; only the first step can fail
    (every corridor PE has a successor in the next corridor set).  The
    depth-first search's Manhattan bound has nothing to add: on the mesh a
    corridor PE is within the remaining hops of a goal by construction."""
    stats.bfs_calls += 1
    hops = t_dst - t_src_eff - 1
    back = ctx.corridor(mrt, {}, dst_id, t_dst, hops)
    mt = ctx.moves_table(hint)
    path: list[int] = []
    p = src_id
    for k in range(hops - 1, -1, -1):
        inside = back[k]
        for q in mt[p]:
            if inside >> q & 1:
                break
        else:
            return None
        path.append(q)
        p = q
    stats.expansions += hops
    return _steps_of(ctx, path, t_src_eff)


def _dfs_route(
    ctx: RoutingContext,
    mrt: ReservationTable,
    src_id: int,
    t_src_eff: int,
    goal_mask: tuple[bool, ...],
    min_dist: tuple[int, ...],
    hint: int | None,
    hops: int,
    max_expansions: int,
    stats: MapperCounters,
) -> tuple[RouteStep, ...] | None:
    """Depth-first exact-length search tracking the modulo slots the partial
    path itself occupies (needed when the route is longer than the II).

    Children are probed in :meth:`RoutingContext.moves_table` order (one
    indexed load per expansion instead of a method call + dict probe) and
    leaf goal tests are inlined into the parent's loop; visit order,
    budget accounting and therefore search results are bit-for-bit
    unchanged from the original formulation."""
    stats.dfs_calls += 1
    ii = mrt.ii
    num_pes = mrt.num_pes
    mt = ctx.moves_table(hint)
    # visited-set seeded with the MRT occupancy bitmap (one C-speed copy),
    # so the inner loop tests a single byte per candidate slot
    used = bytearray(mrt.occupied)
    # path[d]: the step-d PE of the current partial path; positions are
    # overwritten on backtrack, and only read out along a successful chain
    path: list[int] = [0] * hops
    budget = max_expansions
    # bases[d]: flat MRT base for steps placed by the node at depth d
    bases = [((t_src_eff + d + 1) % ii) * num_pes for d in range(hops)]
    last = hops - 1  # depth whose children are the final (goal) steps
    lastm1 = hops - 2

    def rec(p: int, j: int) -> bool:
        nonlocal budget
        base = bases[j]
        if j == last:
            # final step: children are leaves, test the goal inline (one
            # budget unit per leaf visit, exactly like the recursive form)
            for q in mt[p]:
                idx = base + q
                if used[idx]:
                    continue
                if min_dist[q] > 0:
                    continue
                if budget <= 0:
                    return False
                budget -= 1
                if goal_mask[q]:
                    path[last] = q
                    return True
            return False
        if j == lastm1:
            # penultimate step: expand the final level inline too — the
            # two deepest levels carry most of the visit volume, and this
            # spares a Python call per penultimate-node visit.  Checks,
            # budget accounting and child order are bit-for-bit the
            # recursive form's.
            base2 = bases[last]
            for q in mt[p]:
                idx = base + q
                if used[idx]:
                    continue
                if min_dist[q] > 1:
                    continue
                if budget <= 0:
                    return False
                budget -= 1
                used[idx] = 1
                for r in mt[q]:
                    idx2 = base2 + r
                    if used[idx2]:
                        continue
                    if min_dist[r] > 0:
                        continue
                    if budget <= 0:
                        used[idx] = 0
                        return False
                    budget -= 1
                    if goal_mask[r]:
                        path[lastm1] = q
                        path[last] = r
                        return True
                used[idx] = 0
            return False
        remaining = hops - j - 1
        for q in mt[p]:
            idx = base + q
            if used[idx]:
                continue
            if min_dist[q] > remaining:
                continue
            if budget <= 0:
                return False
            budget -= 1
            used[idx] = 1
            path[j] = q
            if rec(q, j + 1):
                return True
            used[idx] = 0
        return False

    found = False
    if budget > 0:
        budget -= 1  # visit the source node
        found = rec(src_id, 0)
    stats.expansions += max_expansions - budget
    if not found:
        return None
    return _steps_of(ctx, path, t_src_eff)


def commit_route(mrt: ReservationTable, steps: tuple[RouteStep, ...]) -> None:
    """Claim every step's modulo slot in the reservation table."""
    id_of = mrt.cgra.grid_index.id_of
    claim = mrt.claim_id
    for s in steps:
        claim(id_of[s.pe], s.time)


def release_route(
    mrt: ReservationTable, steps: tuple[RouteStep, ...]
) -> None:
    id_of = mrt.cgra.grid_index.id_of
    release = mrt.release_id
    for s in steps:
        release(id_of[s.pe], s.time)
