"""Tests for the one II-ladder driver.

The driver is a serial walk of the (II, attempt) lattice, so its contract
is short: probes run in lexicographic order, the first success returns, a
ladder is exactly the rungs ``ladder_rungs`` names, and a failed probe
says which op it died on.  A ``ScriptedMapper`` fabricates verdicts per
lattice point to check where a ladder ends — its last rung, the II ceiling
of a paged one, a first rung above either — and the rng-replay helper is
checked against an incrementally drawn perturbation stream.
"""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import EMSMapper, MapperConfig
from repro.compiler.search import LadderReport, climb_ladder
from repro.compiler.stats import MapperCounters, counters, job_counters
from repro.kernels import get_kernel
from repro.util.errors import LadderExhausted
from repro.util.rng import make_rng


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
        rng = make_rng(cfg.seed)
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
    from repro.compiler.paged import PagedMapper
    from repro.pipeline.compile import make_layout

    cgra = CGRA(4, 4)
    config = MapperConfig(attempts_per_ii=4, **config)
    return PagedMapper(cgra, make_layout(cgra, 2), config), get_kernel("sobel").build()


class TestLadderEnds:
    """A ladder is the rungs ``ladder_rungs`` names and nothing else,
    walked in order: the first success returns, the walk stops at the last
    rung, and a first rung above it is exhausted without a probe."""

    def _climb(self, mapper, dfg, **kwargs):
        """(result or the LadderExhausted raised, the ladder's report)"""
        log: list[LadderReport] = []
        try:
            result = climb_ladder(mapper, dfg, log=log, **kwargs)
        except LadderExhausted as exc:
            result = exc
        return result, log[0]

    def test_first_success_wins_and_nothing_above_it_runs(self):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6)
        start, polls = mapper.start, []
        winner, report = self._climb(
            mapper, dfg, cancel_check=lambda: bool(polls.append(None))
        )
        assert winner == report.winner == mapper.win == (start + 2, 4)
        lattice = [(ii, a) for ii in range(start, start + 3) for a in range(6)]
        assert mapper.probed == lattice[: lattice.index(winner) + 1]
        assert len(polls) == len(mapper.probed)  # one poll before every probe
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
        mapper = ScriptedMapper(dfg, attempts_per_ii=6, max_ii=8)
        error, report = self._climb(mapper, dfg, min_ii=9)
        assert isinstance(error, LadderExhausted)
        assert mapper.probed == [] and report.timeline == []

    def test_paged_ladder_ends_at_the_ceiling(self):
        """Whole-array ladders run to ``config.max_ii``; every paged one to
        ``IIBound.ceiling`` — and a ``min_ii`` above it launches nothing."""
        from repro.compiler.hier import HierMapper

        mapper, dfg = _sobel_ps2_mapper()
        ceiling = 3 * 2 + 6  # 26 ops on 16 PEs: res_mii 2, rec_mii 1
        assert mapper.ladder_rungs(dfg) == (2, ceiling)
        assert mapper.ladder_rungs(dfg, min_ii=20) == (20, ceiling)
        assert EMSMapper(mapper.cgra).ladder_rungs(dfg)[1] == 64
        hier = HierMapper(mapper.cgra, mapper.layout, mapper.config)
        assert hier.ladder_rungs(dfg) == (2, ceiling)
        tight, _ = _sobel_ps2_mapper(max_ii=7)
        assert tight.ladder_rungs(dfg) == (2, 7)
        error, report = self._climb(mapper, dfg, min_ii=ceiling + 1)
        assert isinstance(error, LadderExhausted)
        assert f"II <= {ceiling}" in str(error)
        assert report.timeline == []


class TestStuck:
    """A failed probe says which op it died on and why, on the report of
    its ladder."""

    def test_failed_rows_carry_the_stuck_op(self):
        mapper, dfg = _sobel_ps2_mapper(max_ii=2)
        log: list[LadderReport] = []
        with pytest.raises(LadderExhausted):
            climb_ladder(mapper, dfg, log=log)
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
        """A closed scope stays readable, its totals land in the scope that
        encloses it — once — and increments go to the innermost open one."""
        with job_counters() as outer:
            counters().expansions += 2
            with job_counters() as inner:
                assert counters() is inner
                counters().expansions += 5
                counters().rungs_skipped += 1
            assert counters() is outer
            with job_counters() as sibling:
                counters().expansions += 1
        assert (inner.expansions, inner.rungs_skipped) == (5, 1)
        assert sibling.expansions == 1
        assert (outer.expansions, outer.rungs_skipped) == (8, 1)

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
