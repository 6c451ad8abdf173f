"""Tests for execution tracing (cycle trace + system timeline)."""

from __future__ import annotations

import pytest

from repro.arch.cgra import CGRA
from repro.compiler.ems import map_dfg
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.trace import CycleTrace, SystemTimeline
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


class TestSystemTimeline:
    def test_events_recorded(self):
        profiles = {"k": KernelProfile("k", 1, 1, pages_used=4)}
        wl = [
            ThreadSpec(0, (Segment("cgra", kernel="k", trip=10),)),
            ThreadSpec(1, (Segment("cgra", kernel="k", trip=10),)),
        ]
        tl = SystemTimeline()
        simulate_system(
            wl, SystemConfig(n_pages=4, profiles=profiles), "multithreaded",
            timeline=tl,
        )
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
        tl = SystemTimeline()
        simulate_system(
            wl, SystemConfig(n_pages=2, profiles=profiles), "multithreaded",
            timeline=tl,
        )
        assert any(e.kind == "queued" for e in tl.events)

    def test_render(self):
        tl = SystemTimeline()
        tl.record(1.0, "kernel_start", 0, "k")
        tl.record(2.0, "kernel_done", 0)
        tl.record(1.5, "kernel_start", 1, "k")
        text = tl.render()
        assert text.splitlines()[0].startswith("t=")
        assert len(tl.render(max_events=1).splitlines()) == 1
