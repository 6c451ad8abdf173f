"""Tests for the one II-ladder driver.

The driver is a serial walk of the (II, attempt) lattice, so its contract
is short: probes run in lexicographic order, the first success returns, a
ladder is exactly the rungs ``ladder_rungs`` names, and a failed probe
says which op it died on.  A ``ScriptedMapper`` fabricates verdicts per
lattice point to check where a ladder ends — its last rung, the II ceiling
of a paged one, a first rung above either — and the rng-replay helper is
checked against an incrementally drawn perturbation stream.

The second half is the premise a :class:`ProbeMemo` stands on and the
memo itself: a probe is a pure function of its key (run twice, run on a
fresh mapper, run through a memo: one answer), every part of the key is
there for a probe that needs it (drop it and a named scenario fails), and
sharing — across jobs, across threads — moves no byte.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
from collections import Counter

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import FAIL_FAST_BUDGET, FULL_BUDGET, EMSMapper, MapperConfig
from repro.compiler.search import DfgProbes, LadderReport, ProbeMemo, climb_ladder
from repro.kernels import get_kernel, kernel_names
from repro.util.errors import LadderExhausted, MappingError
from repro.util.rng import PCG64Stream
from repro.util.spans import MapperCounters, collecting, counters, current, span


def _sor():
    return get_kernel("sor").build()


# ------------------------------------------------------------------- rng replay


class TestAttemptOrderReplay:
    """attempt_order must reproduce, at any lattice point asked for in any
    order, the op order an in-order walk drawing from one rng stream would
    use there."""

    def test_replay_matches_serial_stream(self):
        dfg = _sor()
        mapper = EMSMapper(CGRA(4, 4))
        cfg = mapper.config
        start_ii = mapper.ladder_rungs(dfg)[0]
        orders = mapper.attempt_orders(dfg)

        # walk a few rungs in order, drawing from one stream
        rng = PCG64Stream(cfg.seed)
        serial: dict[tuple[int, int], list[int]] = {}
        for ii in range(start_ii, start_ii + 3):
            for attempt in range(cfg.attempts_per_ii):
                if attempt < len(orders):
                    order = list(orders[attempt])
                else:
                    order = list(orders[0])
                    mapper._perturb(order, rng)
                serial[(ii, attempt)] = order

        # replay every point independently, in a scrambled order
        points = sorted(serial, key=lambda p: (-p[0], -p[1]))
        for ii, attempt in points:
            replayed = mapper.attempt_order(orders, start_ii, ii, attempt)
            assert replayed == serial[(ii, attempt)], (ii, attempt)

    def test_base_attempts_do_not_touch_rng(self):
        dfg = _sor()
        mapper = EMSMapper(CGRA(4, 4))
        orders = mapper.attempt_orders(dfg)
        for attempt in range(len(orders)):
            assert mapper.attempt_order(orders, 4, 9, attempt) == orders[attempt]


# ------------------------------------------------------------ where a ladder ends


class ScriptedMapper(EMSMapper):
    """A mapper whose probes never place anything: every lattice point
    below ``win`` (start rung + 2, attempt 4) fails, every point from it
    on succeeds with its own lattice point as the "mapping".  ``probed``
    lists the points in the order they ran."""

    def __init__(self, dfg, **config) -> None:
        super().__init__(CGRA(4, 4), config=MapperConfig(**config))
        self.start = self.ladder_rungs(dfg)[0]
        self.win = (self.start + 2, 4)
        self.probed: list[tuple[int, int]] = []

    def run_lattice_attempt(self, dfg, start_ii, ii, attempt, orders):
        self.probed.append((ii, attempt))
        if (ii, attempt) < self.win:
            return None
        return (ii, attempt)


def _sobel_ps2_mapper(**config):
    """The paged chain mapper of the one committed 4x4 job that maps
    nowhere, ``sobel/ps2`` — and its DFG."""
    from repro.pipeline.compile import make_layout

    cgra = CGRA(4, 4)
    config = MapperConfig(attempts_per_ii=4, **config)
    return EMSMapper(cgra, make_layout(cgra, 2), config), get_kernel("sobel").build()


class TestLadderEnds:
    """A ladder is the rungs ``ladder_rungs`` names and nothing else,
    walked in order: the first success returns, the walk stops at the last
    rung, and a first rung above it is exhausted without a probe."""

    def _climb(self, mapper, dfg):
        """(result or the LadderExhausted raised, the ladder's report)"""
        with collecting() as scope:
            try:
                result = climb_ladder(mapper, dfg)
            except LadderExhausted as exc:
                result = exc
        (report,) = scope.ladders
        probes = [name for name, *_ in scope.spans if name == "compiler.probe"]
        assert len(probes) == len(report.timeline)  # one span per probe
        return result, report

    def test_first_success_wins_and_nothing_above_it_runs(self):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6)
        start = mapper.start
        winner, report = self._climb(mapper, dfg)
        assert winner == report.winner == mapper.win == (start + 2, 4)
        lattice = [(ii, a) for ii in range(start, start + 3) for a in range(6)]
        assert mapper.probed == lattice[: lattice.index(winner) + 1]
        assert [tuple(row[:3]) for row in report.timeline] == [
            (*point, "fail") for point in mapper.probed[:-1]
        ] + [(*winner, "success")]
        assert report.per_ii() == [
            [start, 6, 6, -1], [start + 1, 6, 6, -1], [start + 2, 5, 4, 4]
        ]

    def test_last_rung_below_the_winner_exhausts(self):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6, max_ii=5)
        assert mapper.win[0] == mapper.start + 2 == 6
        error, report = self._climb(mapper, dfg)
        assert isinstance(error, LadderExhausted) and "II <= 5" in str(error)
        assert max(mapper.probed) == (5, 5)
        assert report.winner is None and len(report.timeline) == 12

    def test_first_rung_above_the_last_exhausts_without_probing(self):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6, max_ii=3)
        assert mapper.ladder_rungs(dfg) == (4, 3)  # the MII lies above max_ii
        error, report = self._climb(mapper, dfg)
        assert isinstance(error, LadderExhausted)
        assert mapper.probed == [] and report.timeline == []

    def test_paged_ladder_ends_at_the_ceiling(self):
        """Whole-array ladders run to ``config.max_ii``; every paged one to
        ``IIBound.ceiling``."""
        from repro.compiler.hier import HierMapper

        mapper, dfg = _sobel_ps2_mapper()
        ceiling = 3 * 2 + 6  # 26 ops on 16 PEs: res_mii 2, rec_mii 1
        assert mapper.ladder_rungs(dfg) == (2, ceiling)
        assert EMSMapper(mapper.cgra).ladder_rungs(dfg)[1] == 64
        hier = HierMapper(mapper.cgra, mapper.layout, mapper.config)
        assert hier.ladder_rungs(dfg) == (2, ceiling)
        tight, _ = _sobel_ps2_mapper(max_ii=7)
        assert tight.ladder_rungs(dfg) == (2, 7)


class TestStuck:
    """A failed probe says which op it died on and why, on the report of
    its ladder."""

    def test_failed_rows_carry_the_stuck_op(self):
        mapper, dfg = _sobel_ps2_mapper(max_ii=2)
        with collecting() as scope, pytest.raises(LadderExhausted):
            climb_ladder(mapper, dfg)
        log: list[LadderReport] = scope.ladders
        rows = log[0].timeline
        assert [row[:3] for row in rows] == [[2, a, "fail"] for a in range(4)]
        reasons = {"window", "no-pe", "no-slot", "budget"}
        assert all(op in dfg.ops and why in reasons for *_, (op, why) in rows)
        assert log[0].stuck() == Counter(tuple(row[4]) for row in rows)

    def test_sobel_ps2_dies_on_the_same_three_ops(self):
        """ROADMAP item 3's instrumented finding, now a return value: the
        one unmappable 4x4 job keeps failing on ``ADD 21`` / ``SUB 8`` /
        ``LOAD 2``, on the chain and on the ring alike."""
        from repro.pipeline.compile import CompileJob, compile_job_stats

        artifact, stats = compile_job_stats(CompileJob("sobel", 4, 2))
        assert artifact.unmappable
        _base, chain, ring = stats.ladders
        dfg = get_kernel("sobel").build()
        for report in (chain, ring):
            assert report.winner is None
            assert sum(report.stuck().values()) == len(report.timeline) == 44
        per_op = Counter()
        for (op, _why), n in (chain.stuck() + ring.stuck()).items():
            per_op[f"{dfg.ops[op].opcode.name} {op}"] += n
        assert {op for op, _n in per_op.most_common(3)} == {"ADD 21", "SUB 8", "LOAD 2"}


# -------------------------------------------------------------- counter scopes


class TestJobCounters:
    def test_nested_scope_rolls_up_into_the_enclosing_one(self):
        """A closed scope stays readable, its record — counters, ladder
        reports, spans — lands in the scope that encloses it, once, and
        whatever is reported goes to the innermost open one."""
        with collecting() as outer:
            counters().expansions += 2
            with collecting() as inner:
                assert counters() is inner.counters and current() is inner
                counters().expansions += 5
                counters().rungs_skipped += 1
                current().ladders.append("ladder")
                with span("inner.block"):
                    pass
            assert counters() is outer.counters and current() is outer
            with collecting() as sibling:
                counters().expansions += 1
        assert current() is None
        assert (inner.counters.expansions, inner.counters.rungs_skipped) == (5, 1)
        assert sibling.counters.expansions == 1
        assert (outer.counters.expansions, outer.counters.rungs_skipped) == (8, 1)
        assert inner.ladders == outer.ladders == ["ladder"]
        assert inner.spans == outer.spans and [s[0] for s in outer.spans] == ["inner.block"]
        assert sibling.ladders == sibling.spans == []

    def test_a_span_with_no_scope_open_leaves_nothing(self):
        """With no scope open a span reads no clock and keeps nothing: the
        decorated call runs as it would bare, the block's ``seconds`` stays
        0.0, and the next scope opens empty."""
        seen = []

        @span("test.call")
        def work(x):
            seen.append(current())
            return x + 1

        assert current() is None
        with span("test.block") as block:
            assert work(1) == 2
        assert seen == [None] and block.seconds == 0.0 and current() is None
        with collecting() as scope:
            pass
        assert scope.spans == [] and scope.ladders == []
        assert scope.counters == MapperCounters()

    def test_unscoped_counters_are_private_to_the_thread(self):
        """Outside any scope ``counters()`` is a per-thread instance: no
        process-wide total exists for two threads to race on."""
        seen = []
        thread = threading.Thread(target=lambda: seen.append(counters()))
        thread.start()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert isinstance(seen[0], MapperCounters)
        assert seen[0] is not counters()
        assert counters() is counters()


# ------------------------------------------------------------- probe purity


CONFIG = MapperConfig(attempts_per_ii=4)


def _paged(kernel, page_size, size=4):
    """``(dfg, cgra, layout)`` of a suite kernel on a paged square grid."""
    from repro.pipeline.compile import make_layout

    cgra = CGRA(size, size)
    return get_kernel(kernel).build(), cgra, make_layout(cgra, page_size)


def _probe(mapper, dfg, ii, order):
    """One probe's outcome in the memo's own terms: ``(placements,
    routes)`` or ``(None, stuck)``.  *order* indexes the base orders."""
    if isinstance(order, int):
        order = mapper.attempt_orders(dfg)[order]
    mapping = mapper._try_map(dfg, ii, list(order))
    if mapping is None:
        return None, mapper.stuck
    assert mapping.cgra is mapper.cgra and mapping.dfg is dfg and mapping.ii == ii
    return mapping.placements, mapping.routes


def _purity_dfgs():
    from repro.dfg.random_dfg import random_dfg

    for name in kernel_names():
        yield get_kernel(name).build()
    for seed in range(30):
        yield random_dfg(seed, n_ops=5 + seed % 6)


def test_a_probe_is_a_pure_function_of_its_key():
    """On the 11 kernels and 30 random draws: the probes of a rung and of
    the next rung's first, run on one chain mapper, run again on it, and
    run each on a mapper built for it alone, give one outcome per lattice
    point — nothing a probe leaves in the mapper (routing context, rank
    targets, DFG tables, the stuck op) reaches the next — and a memo (the
    fresh mappers filled one) hands a later job exactly that outcome."""
    from repro.pipeline.compile import make_layout

    cgra = CGRA(4, 4)
    layout = make_layout(cgra, 4)
    failed = mapped = 0
    for dfg in _purity_dfgs():
        used = EMSMapper(cgra, layout, CONFIG)
        first = used.ladder_rungs(dfg)[0]
        points = [(first, 0), (first, 1), (first + 1, 0)]
        once = [_probe(used, dfg, ii, order) for ii, order in points]
        again = [_probe(used, dfg, ii, order) for ii, order in points]
        memo = ProbeMemo()
        probes = memo.for_dfg(dfg)
        fresh = [
            _probe(EMSMapper(cgra, layout, CONFIG, probes), dfg, ii, order)
            for ii, order in points
        ]
        assert once == again == fresh, dfg.name
        later = EMSMapper(cgra, layout, CONFIG, probes)
        assert [_probe(later, dfg, ii, order) for ii, order in points] == once
        assert memo.stats() == {"run": 3, "shared": 3, "entries": 3}
        failed += sum(placements is None for placements, _ in once)
        mapped += sum(placements is not None for placements, _ in once)
    assert failed >= 10 and mapped >= 10  # both kinds of outcome, many times over


def test_a_hit_is_rebuilt_on_the_asking_jobs_objects():
    """Two jobs build a DFG and a fabric each: the second job's hit is a
    mapping of *its* objects (``_probe`` asserts the identities), passes
    ``validate_mapping`` downstream, and owns its dicts — emptying them
    reaches neither the memo nor the next hit."""
    from repro.compiler.paged import map_dfg_paged

    memo = ProbeMemo()
    direct = None
    for _job in range(3):
        dfg, cgra, layout = _paged("sor", 4)
        result = map_dfg_paged(
            dfg, cgra, layout, config=CONFIG, probes=memo.for_dfg(dfg)
        ).mapping
        assert result.cgra is cgra and result.dfg is dfg
        seen = (dict(result.placements), dict(result.routes), result.ii)
        direct = direct or seen
        assert seen == direct
        result.placements.clear()
        result.routes.clear()
    assert memo.stats()["shared"] == 2 * memo.stats()["run"] > 0


class TestProbeKey:
    """Every part of the key is there for a probe that needs it."""

    @staticmethod
    def _vary(value):
        if isinstance(value, int):
            return value + 1
        assert value == "flat", "teach _vary the type of the new MapperConfig field"
        return "hier"

    def test_every_config_field_is_in_the_key_or_is_not_read_by_a_probe(self):
        """No field of ``MapperConfig`` is read by a probe: under another
        value of any of them the key and the outcome are the same.  What a
        probe does read besides the fabric and the layout — its budgets —
        is the tier the mapper was built with, and that is in the key."""
        dfg, cgra, layout = _paged("sor", 4)
        scope = EMSMapper(cgra, layout, CONFIG).probe_scope()
        outcome = _probe(EMSMapper(cgra, layout, CONFIG), dfg, 4, 1)
        names = {f.name for f in dataclasses.fields(MapperConfig)}
        assert names == {"seed", "max_ii", "attempts_per_ii", "backend"}
        for name in names:
            varied = dataclasses.replace(CONFIG, **{name: self._vary(getattr(CONFIG, name))})
            mapper = EMSMapper(cgra, layout, varied)
            assert mapper.probe_scope() == scope, name
            assert _probe(mapper, dfg, 4, 1) == outcome, name
        assert scope[-1] == FULL_BUDGET
        fail_fast = EMSMapper(cgra, layout, CONFIG, budget=FAIL_FAST_BUDGET)
        assert fail_fast.probe_scope() == (*scope[:-1], FAIL_FAST_BUDGET)

    def test_the_key_names_the_fabric_and_the_layout(self):
        """Fabric, layout and budget tier each tell keys apart; equal
        layouts on equal fabrics — another job's objects — share one."""
        from repro.arch.presets import preset
        from repro.core.paging import PageLayout
        from repro.pipeline.compile import make_layout

        cgra = CGRA(8, 8)
        layout = make_layout(cgra, 4)
        scopes = [
            EMSMapper(cgra).probe_scope(),
            EMSMapper(preset("8x8-memcols")).probe_scope(),
            EMSMapper(cgra, layout).probe_scope(),
            EMSMapper(cgra, PageLayout(cgra, (2, 2), allow_wrap=True)).probe_scope(),
            EMSMapper(cgra, layout.subchain(3)).probe_scope(),
            EMSMapper(cgra, make_layout(cgra, 8)).probe_scope(),
            EMSMapper(cgra, layout, budget=FAIL_FAST_BUDGET).probe_scope(),
        ]
        assert len(set(scopes)) == len(scopes)
        again = CGRA(8, 8)  # another job's equal fabric
        assert EMSMapper(again, make_layout(again, 4)).probe_scope() == scopes[2]
        assert EMSMapper(again, make_layout(again, 4).subchain(3)).probe_scope() == scopes[4]

    def test_a_memo_bound_to_one_dfg_refuses_another(self):
        """A memo bound to one DFG answers for no other."""
        dfg, cgra, _layout = _paged("sor", 4)
        probes = ProbeMemo().for_dfg(dfg)
        other = get_kernel("sor").build()
        with pytest.raises(MappingError, match="another DFG"):
            _probe(EMSMapper(cgra, probes=probes), other, 4, 0)

    def test_the_key_names_the_edge_numbering(self):
        """``DFG.fingerprint()`` is blind to edge ids, a stored outcome's
        routes are keyed by them: the same graph from a builder that adds
        its edges in another order shares nothing, and maps as it would
        with no memo."""
        from repro.dfg.graph import DFG

        dfg, cgra, _layout = _paged("sor", 4)
        twin = DFG(name="twin", ops=dict(dfg.ops), _next_op=dfg._next_op)
        for e in reversed(dfg.edges.values()):
            twin.add_edge(e.src, e.dst, e.operand_index, distance=e.distance, init=e.init)
        assert twin.fingerprint() == dfg.fingerprint()
        memo = ProbeMemo()
        for graph in (dfg, twin, dfg, twin):
            through = _probe(EMSMapper(cgra, probes=memo.for_dfg(graph)), graph, 4, 0)
            assert through[0] is not None and through == _probe(EMSMapper(cgra), graph, 4, 0)
        assert memo.stats() == {"run": 2, "shared": 2, "entries": 2}


# Each scenario runs a few probes whose outcomes differ although all of
# their key but one part is equal, first with no memo and then through one:
# the answers must not change.  The mutant of the same name removes that
# part from every key, and the scenario must notice.


def _scenario_allow_wrap(probes_for):
    """gsr 4x4 ps4, II 4, forward order: the chain fails, the ring maps."""
    from repro.core.paging import PageLayout

    dfg, cgra, chain = _paged("gsr", 4)
    ring = PageLayout(cgra, chain.shape, allow_wrap=True)
    probes = probes_for(dfg)
    return [
        _probe(EMSMapper(cgra, layout, CONFIG, probes), dfg, 4, 1)
        for layout in (chain, ring)
    ]


def _scenario_prefix_length(probes_for):
    """mpeg 4x4 ps4, II 2: two pages cannot hold it, three can — the step
    page-need minimisation takes."""
    dfg, cgra, layout = _paged("mpeg", 4)
    probes = probes_for(dfg)
    return [
        _probe(EMSMapper(cgra, layout.subchain(k), CONFIG, probes), dfg, 2, 0)
        for k in (2, 3)
    ]


def _scenario_budgets(probes_for):
    """laplace 4x4 ps4, II 2, one page: the hier backend's fail-fast
    one-page mapper gives up where its full-budget one maps — one layout,
    two tiers, never one entry."""
    from repro.compiler.hier import HierMapper

    dfg, cgra, layout = _paged("laplace", 4)
    hier = HierMapper(cgra, layout, CONFIG, probes_for(dfg))
    return [
        _probe(hier.one_page_mapper(cheap=cheap), dfg, 2, 0) for cheap in (False, True)
    ]


def _without_budget(key):
    (fabric, constraint, _budget), *point = key
    return ((fabric, constraint, None), *point)


def _without_allow_wrap(key):
    (fabric, constraint, *rest), *point = key
    return ((fabric, constraint and constraint[:2], *rest), *point)


def _without_prefix_length(key):
    (fabric, constraint, budget), *point = key
    return ((fabric, constraint and constraint[1:], budget), *point)


SCENARIOS = {
    "allow_wrap": (_scenario_allow_wrap, _without_allow_wrap),
    "prefix_length": (_scenario_prefix_length, _without_prefix_length),
    "budgets": (_scenario_budgets, _without_budget),
}


def _drop_from_every_key(monkeypatch, mutant) -> None:
    """Make every memo key go through *mutant* on its way in and out."""
    get, put = DfgProbes.get, DfgProbes.put
    monkeypatch.setattr(DfgProbes, "get", lambda self, key: get(self, mutant(key)))
    monkeypatch.setattr(
        DfgProbes, "put", lambda self, key, outcome: put(self, mutant(key), outcome)
    )


@pytest.mark.parametrize("part", sorted(SCENARIOS))
def test_probes_that_differ_in_one_part_of_the_key_are_not_shared(part, monkeypatch):
    scenario, mutant = SCENARIOS[part]
    direct = scenario(lambda dfg: None)
    assert direct[0] != direct[1]  # the part decides the outcome here
    memo = ProbeMemo()
    assert scenario(memo.for_dfg) == direct
    # and again on another job's equal fabric and layout: every probe a hit
    assert scenario(memo.for_dfg) == direct
    assert memo.stats() == {"run": 2, "shared": 2, "entries": 2}
    # the same scenario on a memo whose keys lack the part: caught
    _drop_from_every_key(monkeypatch, mutant)
    assert scenario(ProbeMemo().for_dfg) != direct


def test_sobel_ps2_ring_ladder_shares_nothing_with_its_chain(monkeypatch):
    """The one 4x4 job that maps nowhere climbs the chain and then the
    ring, rung for rung through the same (II, order) points and — on its
    first rung — to the same stuck ops.  Only ``allow_wrap`` keeps the
    second ladder from being answered out of the first."""
    from repro.compiler.paged import map_dfg_paged

    def ladders(probes_for):
        dfg, cgra, layout = _paged("sobel", 2)
        with collecting() as scope, pytest.raises(LadderExhausted):
            map_dfg_paged(
                dfg, cgra, layout, config=dataclasses.replace(CONFIG, max_ii=2),
                probes=probes_for(dfg),
            )
        return [
            (report.shared, [[*row[:3], row[4]] for row in report.timeline])
            for report in scope.ladders
        ]

    direct = ladders(lambda dfg: None)
    assert [shared for shared, _rows in direct] == [0, 0]
    assert direct[0][1] == direct[1][1] and len(direct[0][1]) == 4
    memo = ProbeMemo()
    assert ladders(memo.for_dfg) == direct  # a first job shares nothing
    assert ladders(memo.for_dfg) == [(4, rows) for _shared, rows in direct]
    _drop_from_every_key(monkeypatch, _without_allow_wrap)
    assert [shared for shared, _rows in ladders(ProbeMemo().for_dfg)] == [0, 4]


# ------------------------------------------------------- sharing between jobs


def _compile(jobs, memo=None):
    """``[(artifact json, probes run, probes shared)]`` of *jobs*, in order.

    The jobs compile under one scope of the caller's, which must receive
    exactly their records: every ladder report and span of theirs, in
    order, their counters summed, and nothing of a compile that another
    thread runs meanwhile."""
    from repro.pipeline.compile import compile_job_stats

    compiled = []
    with collecting() as scope:
        for job in jobs:
            compiled.append(compile_job_stats(job, memo=memo))
    records = [stats for _artifact, stats in compiled]
    for stats in records:
        assert sum(report.shared for report in stats.ladders) == stats.counters[
            "probes_shared"
        ]
        assert stats.spans[-1][0] == "pipeline.compile_job" and stats.seconds > 0
    ladders = [report for stats in records for report in stats.ladders]
    assert len(scope.ladders) == len(ladders)
    assert all(mine is theirs for mine, theirs in zip(scope.ladders, ladders))
    assert scope.spans == [s for stats in records for s in stats.spans]
    assert scope.counters.as_dict() == {
        key: sum(stats.counters[key] for stats in records) for key in records[0].counters
    }
    return [
        (artifact.to_json(), stats.counters["probes_run"], stats.counters["probes_shared"])
        for artifact, stats in compiled
    ]


def test_two_threads_on_one_memo():
    """Six threads on two cores compile the same sweep through one memo,
    switching every few bytecodes: every artifact equals its unshared
    compile, and the memo's books balance — each lookup either ran or was
    shared, and nothing was stored that did not run."""
    from repro.pipeline.compile import CompileJob

    jobs = [CompileJob("sor", 4, ps, seed=seed) for ps in (2, 4) for seed in (0, 1)]
    direct = _compile(jobs)
    memo = ProbeMemo()
    results: list = []

    def work(order):
        results.append((order, _compile([jobs[i] for i in order], memo)))

    orders = [[(start + step) % len(jobs) for step in range(len(jobs))] for start in range(6)]
    threads = [threading.Thread(target=work, args=(order,)) for order in orders]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    ran = shared = 0
    for order, compiled in results:
        assert [c[0] for c in compiled] == [direct[i][0] for i in order]
        ran += sum(c[1] for c in compiled)
        shared += sum(c[2] for c in compiled)
    stats = memo.stats()
    assert (stats["run"], stats["shared"]) == (ran, shared)
    assert ran + shared == 6 * sum(d[1] for d in direct)
    serial = ProbeMemo()
    _compile(jobs, serial)
    distinct = serial.stats()["entries"]
    assert distinct == stats["entries"] <= ran < 6 * distinct

