"""Tests for the one II-ladder driver and its two executors.

The driver's whole contract is *determinism under races*: whatever order
probes complete in, the reduction must pick the success with the smallest
(ii, attempt) — the point an in-order walk reaches first — so the
artifact bytes never depend on worker count or scheduling luck.  The
tests here attack that contract directly:

* a ``ScriptedExecutor`` completes probes in an adversarial order (high
  rungs first) with fabricated verdicts, proving canonical reduction
  beats completion order and that cancellation prunes strictly above the
  winner;
* a ``ScriptedMapper`` fabricates verdicts per lattice point, so where a
  ladder ends — its last rung, the II ceiling of a paged one, a first rung
  above either — is checked on the inline executor and on a raced one
  alike;
* the rng-replay helper is checked against an incrementally drawn
  perturbation stream;
* ``MapperSpec``/``ProbeTask`` are round-tripped through ``pickle`` and a
  real two-worker process pool is raced against the inline walk.
"""

from __future__ import annotations

import pickle
import threading
import time
from collections import Counter
from concurrent.futures import Future

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import EMSMapper, MapperConfig, map_dfg
from repro.compiler.search import (
    LadderReport,
    MapperSpec,
    ProbeResult,
    ProbeTask,
    SearchContext,
    WorkerBudget,
    climb_ladder,
    ladder_totals,
    run_probe,
)
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


# ------------------------------------------------------------------ mapper spec


class TestMapperSpec:
    def test_base_spec_rebuilds_equivalent_mapper(self):
        dfg = _sor()
        mapper = EMSMapper(CGRA(4, 4), config=MapperConfig())
        spec = MapperSpec.of(mapper)
        assert spec.page_shape is None and spec.num_pages is None
        rebuilt = climb_ladder(spec.build(), dfg)
        direct = climb_ladder(mapper, dfg)
        assert rebuilt.ii == direct.ii
        assert rebuilt.placements == direct.placements
        assert rebuilt.routes == direct.routes

    def test_paged_spec_rebuilds_equivalent_mapper(self):
        from repro.compiler.paged import PagedMapper
        from repro.core.paging import PageLayout

        dfg = _sor()
        cgra = CGRA(4, 4)
        layout = PageLayout(cgra, (1, 4))
        spec = MapperSpec.of(PagedMapper(cgra, layout, MapperConfig()))
        assert spec.page_shape == (1, 4)
        assert spec.num_pages == layout.num_pages
        rebuilt = spec.build()
        assert sorted(rebuilt.allowed_pes) == sorted(layout.page_of)
        start = rebuilt.ladder_rungs(dfg)[0]
        order = rebuilt.attempt_orders(dfg)[0]
        probe = rebuilt._try_map(dfg, start, order)
        # pin against the caller-side paged mapper wiring
        from repro.compiler.constraints import paged_bus_key, ring_hop_filter

        direct = EMSMapper(
            cgra,
            allowed_pes=[pe for pe in cgra.coords() if pe in layout.page_of],
            hop_allowed=ring_hop_filter(layout),
            mem_slots_per_cycle=layout.num_pages
            * layout.shape[0]
            * cgra.mem_ports_per_row,
            bus_key=paged_bus_key(layout),
            pe_rank=lambda pe: layout.page_of[pe],
            config=MapperConfig(),
        )
        ref = direct._try_map(dfg, start, order)
        assert (probe is None) == (ref is None)
        if probe is not None:
            assert probe.placements == ref.placements
            assert probe.routes == ref.routes

    def test_probe_task_round_trips_pickle(self):
        dfg = _sor()
        spec = MapperSpec.of(EMSMapper(CGRA(4, 4)))
        task = ProbeTask(
            spec=spec,
            dfg=dfg,
            dfg_fp=dfg.fingerprint(),
            start_ii=2,
            ii=2,
            attempt=0,
        )
        back = pickle.loads(pickle.dumps(task))
        assert back.spec == spec
        assert back.dfg.fingerprint() == dfg.fingerprint()
        # the unpickled task is runnable and the verdict carries its point
        res = run_probe(back)
        assert (res.ii, res.attempt) == (2, 0)
        assert res.seconds >= 0.0


# ------------------------------------------------- scripted-completion harness


class ScriptedExecutor:
    """An executor that completes probes in an adversarial, scripted order.

    ``submit`` never runs the probe function: each (ii, attempt) gets a
    fabricated success/fail verdict from *verdicts*, and a pump thread
    releases results strictly in *release_order* — regardless of the
    canonical order — so tests can make a high rung land first.  Futures
    stay PENDING until released, which keeps them cancellable exactly like
    a queued process-pool probe.
    """

    def __init__(self, verdicts, release_order, running_points=()):
        self.verdicts = dict(verdicts)  # (ii, attempt) -> Mapping | None
        self.release_order = list(release_order)
        # points whose futures report "already running" at submit time, so
        # the engine's cancel fails on them — like a live pool probe
        self.running = set(running_points)
        self._held: dict[tuple[int, int], Future] = {}
        self._lock = threading.Condition()
        self._closed = False
        self._pump = threading.Thread(target=self._run, daemon=True)
        self._pump.start()

    def submit(self, fn, task):
        fut: Future = Future()
        point = (task.ii, task.attempt)
        if point in self.running:
            fut.set_running_or_notify_cancel()
        with self._lock:
            self._held[point] = fut
            self._lock.notify_all()
        return fut

    def _release(self, point) -> None:
        fut = self._held.pop(point)
        if point not in self.running and not fut.set_running_or_notify_cancel():
            return  # cancelled while queued, like a real pool
        ii, attempt = point
        fut.set_result(
            ProbeResult(
                ii=ii,
                attempt=attempt,
                mapping=self.verdicts[point],
                seconds=0.01,
                counters={},
            )
        )

    def _run(self) -> None:
        for point in self.release_order:
            with self._lock:
                while point not in self._held and not self._closed:
                    self._lock.wait(timeout=0.05)
                if self._closed:
                    return
                self._release(point)
            # pace releases so the engine all but certainly consumes one
            # verdict before the next lands (labels stay deterministic)
            time.sleep(0.05)
        # drain anything the script didn't name, in canonical order, so a
        # buggy engine deadlocks loudly in the drain instead of hanging;
        # a correct engine cancels/returns long before the grace expires
        deadline = time.monotonic() + 5.0
        time.sleep(0.5)
        while time.monotonic() < deadline:
            with self._lock:
                if self._closed:
                    return
                for point in sorted(self._held):
                    self._release(point)
            time.sleep(0.01)

    def shutdown(self, **_kw) -> None:
        with self._lock:
            self._closed = True
            self._lock.notify_all()


class _FakeMapping:
    """Stand-in success verdict; the engine only stores it, rebinds its
    ``dfg``/``cgra`` attributes and returns it."""

    def __init__(self, tag: str) -> None:
        self.tag = tag
        self.dfg = None
        self.cgra = None


def _scripted_ctx(verdicts, release_order, workers, running_points=()):
    return SearchContext(
        workers=workers,
        executor=ScriptedExecutor(verdicts, release_order, running_points),
        budget=WorkerBudget(workers),
        owns_executor=True,
    )


def _mapper_and_start(attempts_per_ii=6):
    dfg = _sor()
    cgra = CGRA(4, 4)
    mapper = EMSMapper(cgra, config=MapperConfig(attempts_per_ii=attempts_per_ii))
    return mapper, dfg, cgra, mapper.ladder_rungs(dfg)[0]


# ------------------------------------------------------------ canonical winner


class TestCanonicalReduction:
    def test_late_low_attempt_beats_early_high_attempt(self):
        """(start, 1) succeeds *first*; (start, 0) succeeds later and must
        still win — reduction is by canonical order, not completion order."""
        mapper, dfg, cgra, start = _mapper_and_start()
        win, lose = _FakeMapping("canonical"), _FakeMapping("fastest")
        verdicts = {(start, 0): win, (start, 1): lose}
        log: list[LadderReport] = []
        ctx = _scripted_ctx(verdicts, [(start, 1), (start, 0)], workers=2)
        with ctx:
            result = climb_ladder(mapper, dfg, search=ctx, log=log)
        assert result is win
        assert result.dfg is dfg and result.cgra is cgra
        (report,) = log
        assert report.winner == (start, 0)
        # the early high-attempt success is not the winner; depending on
        # when the winner's verdict arrived it is recorded as a useful
        # success (landed first) or as waste (batched with the winner)
        outcomes = {(ii, a): o for ii, a, o, *_ in report.timeline}
        assert outcomes[(start, 1)] in ("success", "wasted")
        assert outcomes[(start, 0)] == "success"

    def test_high_ii_finishing_first_loses_and_prunes(self):
        """A success on II+1 lands while the II rung is still in flight:
        it must cancel only the rungs *above* itself, and the later II-rung
        success must still win the reduction."""
        mapper, dfg, cgra, start = _mapper_and_start(attempts_per_ii=2)
        win = _FakeMapping("low-ii")
        early = _FakeMapping("high-ii")
        verdicts = {
            (start, 0): None,  # fail
            (start, 1): win,
            (start + 1, 0): early,
            (start + 1, 1): _FakeMapping("never-used"),
        }
        # (start+1, 0) completes first; then the start rung resolves
        release = [(start + 1, 0), (start, 0), (start, 1)]
        log: list[LadderReport] = []
        ctx = _scripted_ctx(verdicts, release, workers=4)
        with ctx:
            result = climb_ladder(mapper, dfg, search=ctx, log=log)
        assert result is win
        (report,) = log
        assert report.winner == (start, 1)
        outcomes = {(ii, a): o for ii, a, o, *_ in report.timeline}
        assert outcomes[(start + 1, 0)] == "success"  # completed before win
        assert outcomes[(start, 0)] == "fail"
        assert outcomes[(start, 1)] == "success"
        # the rung above the early success never ran: cancelled while queued
        assert outcomes[(start + 1, 1)] == "cancelled"
        assert report.probes_cancelled >= 1
        assert report.per_ii()[0][0] == start
        assert report.per_ii()[0][4] == 1  # winning attempt on the start rung

    def test_running_probe_above_winner_is_abandoned_and_charged(self):
        """A probe already *running* when a lower success lands cannot be
        cancelled: the ladder abandons it and counts it as speculation
        waste in its report."""
        mapper, dfg, cgra, start = _mapper_and_start(attempts_per_ii=2)
        win = _FakeMapping("winner")
        verdicts = {
            (start, 0): win,
            (start, 1): None,
            (start + 1, 0): None,
            (start + 1, 1): None,
        }
        # the winner lands while (start, 1) is running; (start+1, *) are
        # still queued, so they cancel cleanly but (start, 1) cannot
        release = [(start, 0), (start, 1)]
        log: list[LadderReport] = []
        ctx = _scripted_ctx(
            verdicts, release, workers=4, running_points={(start, 1)}
        )
        with ctx:
            result = climb_ladder(mapper, dfg, search=ctx, log=log)
            assert result is win
            (report,) = log
            assert report.winner == (start, 0)
            outcomes = {(ii, a): o for ii, a, o, *_ in report.timeline}
            assert outcomes[(start, 1)] == "abandoned"
            assert outcomes[(start + 1, 0)] == "cancelled"
            assert outcomes[(start + 1, 1)] == "cancelled"
            assert report.probes_wasted == 1
            assert report.probes_cancelled == 2

    def test_exhausted_lattice_raises_mapping_error(self):
        mapper, dfg, cgra, start = _mapper_and_start(attempts_per_ii=2)
        # clamp the ladder to two rungs and fail every point
        cfg = MapperConfig(attempts_per_ii=2, max_ii=start + 1)
        mapper = EMSMapper(cgra, config=cfg)
        verdicts = {
            (ii, a) for ii in (start, start + 1) for a in (0, 1)
        }
        verdicts = {p: None for p in verdicts}
        ctx = _scripted_ctx(verdicts, sorted(verdicts), workers=2)
        with ctx, pytest.raises(LadderExhausted, match=f"II <= {start + 1}"):
            climb_ladder(mapper, dfg, search=ctx)


# ------------------------------------------------------------ where a ladder ends


class ScriptedMapper(EMSMapper):
    """A mapper whose probes never place anything: every lattice point
    below ``win`` (start rung + 2, attempt 4) fails, every point from it
    on succeeds with a :class:`_FakeMapping`.  ``probed`` lists the points
    in the order they ran."""

    def __init__(self, dfg, **config) -> None:
        super().__init__(CGRA(4, 4), config=MapperConfig(**config))
        self.start = self.ladder_rungs(dfg)[0]
        self.win = (self.start + 2, 4)
        self.probed: list[tuple[int, int]] = []

    def run_lattice_attempt(self, dfg, start_ii, ii, attempt, orders):
        self.probed.append((ii, attempt))
        if (ii, attempt) < self.win:
            return None
        return _FakeMapping((ii, attempt))


class MapperExecutor:
    """A raced executor that runs each submitted probe at once, on the
    test's own mapper instead of one rebuilt from the task's spec."""

    def __init__(self, mapper) -> None:
        self.mapper = mapper

    def submit(self, fn, task):
        orders = self.mapper.attempt_orders(task.dfg)
        mapping = self.mapper.run_lattice_attempt(
            task.dfg, task.start_ii, task.ii, task.attempt, orders
        )
        fut: Future = Future()
        fut.set_result(ProbeResult(task.ii, task.attempt, mapping, 0.01, {}))
        return fut


def _sobel_ps2_mapper(**config):
    """The paged chain mapper of the one committed 4x4 job that maps
    nowhere, ``sobel/ps2`` — and its DFG."""
    from repro.compiler.paged import PagedMapper
    from repro.pipeline.compile import make_layout

    cgra = CGRA(4, 4)
    config = MapperConfig(attempts_per_ii=4, **config)
    return PagedMapper(cgra, make_layout(cgra, 2), config), get_kernel("sobel").build()


@pytest.mark.parametrize("raced", [False, True], ids=["inline", "raced"])
class TestLadderEnds:
    """A ladder is the rungs ``ladder_rungs`` names and nothing else: the
    walk stops at the last one, and a first rung above it is exhausted
    without a probe — with either executor."""

    def _climb(self, raced, mapper, dfg, **kwargs):
        """(result or the LadderExhausted raised, the ladder's report)"""
        search = (
            SearchContext(
                workers=2, executor=MapperExecutor(mapper), budget=WorkerBudget(2)
            )
            if raced
            else None
        )
        log: list[LadderReport] = []
        try:
            result = climb_ladder(mapper, dfg, search=search, log=log, **kwargs)
        except LadderExhausted as exc:
            result = exc
        return result, log[0]

    def test_last_rung_below_the_winner_exhausts(self, raced):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6, max_ii=5)
        assert mapper.win[0] == mapper.start + 2 == 6
        error, report = self._climb(raced, mapper, dfg)
        assert isinstance(error, LadderExhausted) and "II <= 5" in str(error)
        assert max(mapper.probed) == (5, 5)
        assert report.winner is None and report.probes_launched == 12

    def test_first_rung_above_the_last_exhausts_without_probing(self, raced):
        dfg = _sor()
        mapper = ScriptedMapper(dfg, attempts_per_ii=6, max_ii=8)
        error, report = self._climb(raced, mapper, dfg, min_ii=9)
        assert isinstance(error, LadderExhausted)
        assert mapper.probed == [] and report.timeline == []

    def test_paged_ladder_ends_at_the_ceiling(self, raced):
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
        error, report = self._climb(raced, mapper, dfg, min_ii=ceiling + 1)
        assert isinstance(error, LadderExhausted)
        assert f"II <= {ceiling}" in str(error)
        assert report.probes_launched == 0 and report.timeline == []


class TestStuck:
    """A failed probe says which op it died on and why, on the report of
    its ladder, from whichever side of the process boundary it ran."""

    def test_failed_rows_carry_the_stuck_op_across_the_probe_boundary(self):
        mapper, dfg = _sobel_ps2_mapper(max_ii=2)
        log: list[LadderReport] = []
        with pytest.raises(LadderExhausted):
            climb_ladder(mapper, dfg, log=log)
        rows = log[0].timeline
        assert [row[:3] for row in rows] == [[2, a, "fail"] for a in range(4)]
        reasons = {"window", "no-pe", "no-slot", "budget"}
        assert all(op in dfg.ops and why in reasons for *_, (op, why) in rows)
        assert log[0].stuck() == Counter(tuple(row[4]) for row in rows)
        # the same probes as picklable tasks, as a pool worker runs them
        spec, fp = MapperSpec.of(mapper), dfg.fingerprint()
        for ii, attempt, _outcome, _seconds, stuck in rows:
            task = pickle.loads(pickle.dumps(ProbeTask(spec, dfg, fp, 2, ii, attempt)))
            result = pickle.loads(pickle.dumps(run_probe(task)))
            assert result.mapping is None and result.stuck == stuck

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
            assert sum(report.stuck().values()) == report.probes_launched == 44
        per_op = Counter()
        for (op, _why), n in (chain.stuck() + ring.stuck()).items():
            per_op[f"{dfg.ops[op].opcode.name} {op}"] += n
        assert {op for op, _n in per_op.most_common(3)} == {"ADD 21", "SUB 8", "LOAD 2"}


# --------------------------------------------------------------- worker budget


class TestWorkerBudget:
    def test_blocking_and_speculative_acquire(self):
        b = WorkerBudget(2)
        assert b.acquire()
        assert b.acquire(blocking=False)
        assert not b.acquire(blocking=False)  # pool saturated
        b.release()
        assert b.acquire(blocking=False)
        with pytest.raises(ValueError):
            WorkerBudget(0)


# ------------------------------------------------------------- real pool smoke


class TestRealPoolParity:
    def test_context_requires_two_workers(self):
        with pytest.raises(ValueError):
            SearchContext.create(1)

    def test_two_worker_pool_matches_serial_ladder(self):
        """End-to-end: the driver racing a real process pool returns the
        exact mapping of the same driver walking inline."""
        dfg = _sor()
        cgra = CGRA(4, 4)
        serial = map_dfg(dfg, cgra)
        with SearchContext.create(2) as ctx:
            parallel = map_dfg(dfg, cgra, search=ctx)
        assert parallel.ii == serial.ii
        assert parallel.placements == serial.placements
        assert parallel.routes == serial.routes
        assert parallel.dfg is dfg and parallel.cgra is cgra

    def test_refutation_counters_cross_the_process_boundary(self):
        """With ``workers=2`` every probe runs in a worker process, so the
        reachability filter's counters can only reach the caller's job
        scope as ``ProbeResult.counters`` through ``MapperCounters.add``."""
        dfg = get_kernel("mpeg").build()
        cgra = CGRA(4, 4)
        with job_counters() as serial:
            map_dfg(dfg, cgra)
        assert serial.routes_refuted > 0 and serial.trials_refuted > 0
        with SearchContext.create(2) as ctx, job_counters() as parallel:
            map_dfg(dfg, cgra, search=ctx)
        # the delta of every probe the ladder read is merged, the winner's
        # included; probes abandoned above it are never read
        assert parallel.routes_refuted >= serial.routes_refuted
        assert parallel.trials_refuted >= serial.trials_refuted
        merged = MapperCounters()
        merged.add({"routes_refuted": 3, "trials_refuted": 5, "not_a_counter": 1})
        assert (merged.routes_refuted, merged.trials_refuted) == (3, 5)


# ---------------------------------------------------------------- ladder totals


class TestLadderTotals:
    def test_sums_reports_per_job_and_across_jobs(self):
        """One sum for one job's ladders (``CompileStats.search``) and for
        every job's of a run."""
        from repro.pipeline.compile import CompileStats

        ladder = LadderReport(
            start_ii=2,
            attempts_per_ii=4,
            probes_launched=5,
            probes_cancelled=1,
            probes_wasted=1,
            useful_seconds=3.0,
            wasted_seconds=1.0,
        )
        job = CompileStats(
            kernel="sor",
            size=8,
            page_size=4,
            seconds=1.0,
            base_map_seconds=0.4,
            paged_map_seconds=0.6,
            counters={},
            ladders=(ladder,),
        )
        assert job.search == ladder_totals([ladder])
        assert job.search["speculation_efficiency"] == 0.75
        assert ladder_totals([ladder, ladder]) == {
            "ladders": 2,
            "probes_launched": 10,
            "probes_cancelled": 2,
            "probes_wasted": 2,
            "useful_seconds": 6.0,
            "wasted_seconds": 2.0,
            "speculation_efficiency": 0.75,
        }
        assert ladder_totals([])["speculation_efficiency"] == 1.0


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
