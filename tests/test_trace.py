"""Tests for execution tracing (cycle trace + system timeline)."""

from __future__ import annotations

import json

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import map_dfg
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.trace import CycleTrace, DecisionTrace, SystemTimeline
from repro.sim.workload import Segment, ThreadSpec


class TestCycleTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        cgra = CGRA(4, 4, rf_depth=8)
        spec = get_kernel("laplace")
        dfg, arrays, _ = spec.fresh(seed=0, trip=6)
        m = map_dfg(dfg, cgra)
        mem = bind_memory(arrays)
        trace = CycleTrace()
        res = simulate(lower_mapping(m, mem, 6), cgra, mem, trace=trace)
        return res, trace

    def test_records_every_firing(self, traced):
        res, trace = traced
        assert len(trace.records) == res.firings

    def test_records_carry_values(self, traced):
        _, trace = traced
        stores = trace.of_op("st_out")
        assert stores and all(r.opcode == "store" for r in stores)

    def test_render(self, traced):
        _, trace = traced
        text = trace.render(first=0, last=3)
        assert "c0000" in text
        assert "->" in text

    def test_limit_drops(self):
        trace = CycleTrace(limit=2)
        cgra = CGRA(4, 4)
        spec = get_kernel("laplace")
        dfg, arrays, _ = spec.fresh(seed=0, trip=6)
        m = map_dfg(dfg, cgra)
        mem = bind_memory(arrays)
        simulate(lower_mapping(m, mem, 6), cgra, mem, trace=trace)
        assert len(trace.records) == 2 and trace.dropped > 0
        assert "dropped" in trace.render()


def _replayed(wl, n_pages, profiles, mode="multithreaded"):
    decisions = DecisionTrace()
    simulate_system(
        wl, SystemConfig(n_pages=n_pages, profiles=profiles), mode,
        decisions=decisions,
    )
    return SystemTimeline.replay(decisions, wl)


class TestSystemTimeline:
    def test_events_recorded(self):
        profiles = {"k": KernelProfile("k", 1, 1, pages_used=4)}
        wl = [
            ThreadSpec(0, (Segment("cgra", kernel="k", trip=10),)),
            ThreadSpec(1, (Segment("cgra", kernel="k", trip=10),)),
        ]
        tl = _replayed(wl, 4, profiles)
        kinds = {e.kind for e in tl.events}
        assert "kernel_start" in kinds
        assert "kernel_done" in kinds
        assert "realloc" in kinds  # thread 0 halved when thread 1 arrived

    def test_queue_event_when_saturated(self):
        profiles = {"k": KernelProfile("k", 1, 1, pages_used=1)}
        wl = [
            ThreadSpec(t, (Segment("cgra", kernel="k", trip=5),))
            for t in range(3)
        ]
        tl = _replayed(wl, 2, profiles)
        assert any(e.kind == "queued" for e in tl.events)

    def test_replay_rows(self):
        # every row, in the order the decisions were taken: thread 1's
        # release at t=180 grows thread 0, and its next request at the same
        # instant halves thread 0 again
        profiles = {"k": KernelProfile("k", 2, 2, pages_used=4)}
        wl = [
            ThreadSpec(0, (Segment("cgra", kernel="k", trip=40),)),
            ThreadSpec(
                1,
                (
                    Segment("cgra", kernel="k", trip=20),
                    Segment("cgra", kernel="k", trip=2),
                ),
                arrival=20,
            ),
        ]
        events = _replayed(wl, 2, profiles).events
        rows = [(e.time, e.kind, e.tid, e.detail, e.alloc) for e in events]
        assert rows == [
            (0.0, "kernel_start", 0, "k x40 on 2 pages", (0, 2)),
            (20.0, "realloc", 0, "2 -> 1 pages", (0, 1)),
            (20.0, "kernel_start", 1, "k x20 on 1 pages", (1, 1)),
            (180.0, "kernel_done", 1, "", None),
            (180.0, "realloc", 0, "1 -> 2 pages", (0, 2)),
            (180.0, "realloc", 0, "2 -> 1 pages", (0, 1)),
            (180.0, "kernel_start", 1, "k x2 on 1 pages", (1, 1)),
            (196.0, "kernel_done", 1, "", None),
            (196.0, "realloc", 0, "1 -> 2 pages", (0, 2)),
            (248.0, "kernel_done", 0, "", None),
        ]
        # why each thread was reshaped or started: another thread's decision
        assert [e.cause for e in events if e.cause] == [
            "request of thread 1",
            "release of thread 1",
            "request of thread 1",
            "release of thread 1",
        ]

    def test_replay_rows_single_mode(self):
        # the whole array is one FIFO resource: thread 1 queues behind
        # thread 0 and is started by its release
        profiles = {"k": KernelProfile("k", 2, 2, pages_used=4)}
        wl = [
            ThreadSpec(0, (Segment("cgra", kernel="k", trip=10),)),
            ThreadSpec(1, (Segment("cgra", kernel="k", trip=5),), arrival=4),
        ]
        timeline = _replayed(wl, 2, profiles, mode="single")
        rows = [
            (e.time, e.kind, e.tid, e.detail, e.alloc, e.cause)
            for e in timeline.events
        ]
        assert rows == [
            (0.0, "kernel_start", 0, "k x10 on 2 pages", (0, 2), ""),
            (4.0, "queued", 1, "k", None, ""),
            (20.0, "kernel_done", 0, "", None, ""),
            (20.0, "kernel_start", 1, "k x5 on 2 pages", (0, 2),
             "release of thread 0"),
            (30.0, "kernel_done", 1, "", None, ""),
        ]
        slices = [
            (e["tid"], e["name"], e["ts"], e["dur"], e["args"].get("cause"))
            for e in timeline.chrome_trace()["traceEvents"]
            if e["ph"] == "X"
        ]
        assert slices == [
            (0, "k x10 on 2 pages", 0.0, 20.0, None),
            (1, "queued", 4.0, 16.0, None),
            (1, "k x5 on 2 pages", 20.0, 10.0, "release of thread 0"),
        ]

    def test_chrome_trace(self):
        profiles = {"k": KernelProfile("k", 1, 1, pages_used=1)}
        wl = [
            ThreadSpec(t, (Segment("cgra", kernel="k", trip=5),))
            for t in range(3)
        ]
        trace = json.loads(json.dumps(_replayed(wl, 2, profiles).chrome_trace()))
        names = [e["args"]["name"] for e in trace["traceEvents"] if e["ph"] == "M"]
        assert names == ["thread 0", "thread 1", "thread 2"]
        slices = [
            (e["tid"], e["name"], e["ts"], e["dur"])
            for e in trace["traceEvents"]
            if e["ph"] == "X"
        ]
        # thread 0 is admitted onto both pages and halved for thread 1 at
        # the same instant: a zero-length slice, then its one-page slice
        assert sorted(slices) == [
            (0, "2 -> 1 pages", 0.0, 5.0),
            (0, "k x5 on 2 pages", 0.0, 0.0),
            (1, "1 -> 2 pages", 5.0, 0.0),
            (1, "2 -> 1 pages", 5.0, 0.0),
            (1, "k x5 on 1 pages", 0.0, 5.0),
            (2, "1 -> 2 pages", 5.0, 5.0),
            (2, "k x5 on 1 pages", 5.0, 0.0),
            (2, "queued", 0.0, 5.0),
        ]

    def test_render(self):
        tl = SystemTimeline()
        tl.record(1.0, "kernel_start", 0, "k")
        tl.record(2.0, "kernel_done", 0)
        tl.record(1.5, "kernel_start", 1, "k")
        text = tl.render()
        assert text.splitlines()[0].startswith("t=")
        assert len(tl.render(max_events=1).splitlines()) == 1
