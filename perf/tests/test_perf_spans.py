"""The tracer and the trace's self-check."""

from __future__ import annotations

import asyncio
import time

import pytest

from perf.layers import Trace
from perf.spans import Tracer, self_times


class _Thing:
    @classmethod
    def make(cls):
        return cls()

    def slow(self):
        time.sleep(0.002)
        return 7


def _inner():
    time.sleep(0.002)


def _outer():
    _inner()
    time.sleep(0.002)


def test_parent_links_and_self_time():
    tracer = Tracer()
    tracer.install(
        [
            ("t.inner", f"{__name__}:_inner", None),
            ("t.outer", f"{__name__}:_outer", lambda: "req-1"),
        ]
    )
    try:
        _outer()
    finally:
        tracer.uninstall()
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["t.inner"]["parent"] == by_name["t.outer"]["id"]
    assert by_name["t.inner"]["req"] == "req-1"  # inherited
    own = self_times(tracer.spans)
    outer, inner = by_name["t.outer"], by_name["t.inner"]
    assert own[(outer["pid"], outer["id"])] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"])
    )
    _outer()  # uninstalled: nothing more is recorded
    assert len(tracer.spans) == 2


def test_patches_methods_classmethods_and_coroutines():
    async def nap():
        await asyncio.sleep(0.001)
        return "done"

    tracer = Tracer()
    tracer.install(
        [
            ("t.make", f"{__name__}:_Thing.make", None),
            ("t.slow", f"{__name__}:_Thing.slow", None),
        ]
    )
    try:
        assert _Thing.make().slow() == 7
    finally:
        tracer.uninstall()
    assert asyncio.run(tracer.wrap("t.nap", nap)()) == "done"
    kinds = {s["name"]: s["kind"] for s in tracer.spans}
    assert kinds == {"t.make": "call", "t.slow": "call", "t.nap": "await"}
    assert isinstance(_Thing.__dict__["make"], classmethod)


def test_stale_import_binding_fails_loudly():
    """Patching job_key only where it is defined leaves repro.serve.service
    calling its own imported reference: no span, and the self-check says so."""
    import repro.serve.service as service_mod
    from repro.pipeline.compile import CompileJob

    tracer = Tracer()
    tracer.install([("pipeline.job_key", "repro.pipeline.compile:job_key", None)])
    try:
        service_mod.job_key(CompileJob("sor", 4, 4))
    finally:
        tracer.uninstall()
    problems = Trace(tracer.spans, [], []).problems("service_burst")
    assert any("'pipeline.job_key'" in p and "never fired" in p for p in problems)


def test_install_imports_before_patching_so_nothing_is_wrapped_twice():
    """A module imported only after its source was patched would bind the
    wrapper by name; wrapped again, every call would count twice."""
    import sys

    import repro.pipeline.compile as compile_mod

    saved = {n: sys.modules.pop(n) for n in list(sys.modules) if n.startswith("repro.serve")}
    tracer = Tracer()
    try:
        tracer.install(
            [
                ("pipeline.job_key", "repro.pipeline.compile:job_key", None),
                ("pipeline.job_key", "repro.serve.service:job_key", None),
            ]
        )
        sys.modules["repro.serve.service"].job_key(compile_mod.CompileJob("sor", 4, 4))
    finally:
        tracer.uninstall()
        sys.modules.update(saved)
    assert [s["parent"] for s in tracer.spans] == [None]
    nested = tracer.spans + [dict(tracer.spans[0], id=99, parent=tracer.spans[0]["id"])]
    assert any("its own parent" in p for p in Trace(nested, [], []).problems("fold_exec"))


def test_self_time_beyond_wall_is_reported():
    def span(sid, start, end):
        return {
            "id": sid, "name": "sim.retarget", "start": start, "end": end,
            "parent": None, "req": None, "pid": 1, "tid": 1, "kind": "call",
        }

    # two "synchronous" spans of one thread that overlap: double counting
    trace = Trace([span(0, 0.0, 0.9), span(1, 0.1, 1.0)], [(0.0, 1.0)], [])
    assert any("more than the" in p for p in trace.problems("fold_exec"))
    assert trace.value("sim.retarget_s") == pytest.approx(1.8)


def test_warmups_and_untimed_spans():
    def span(sid, name, start, end):
        return {
            "id": sid, "name": name, "start": start, "end": end, "parent": None,
            "req": None, "pid": 1, "tid": 1, "kind": "call",
        }

    spans = [
        span(0, "pipeline.materialize", 0.0, 0.5),  # set-up
        span(1, "sim.retarget", 1.0, 1.4),  # warm-up: dropped
        span(2, "sim.retarget", 2.0, 2.1),  # repeat 0
        span(3, "sim.retarget", 3.0, 3.3),  # repeat 1
    ]
    trace = Trace(spans, [(2.0, 2.5), (3.0, 3.5)], [(1.0, 1.5)])
    assert trace.value("sim.retarget_s") == pytest.approx(0.2)  # median of 0.1, 0.3
    assert trace.value("pipeline.materialize_s") == pytest.approx(0.5)
    assert trace.value("core.pagemaster_place_count") == 0
