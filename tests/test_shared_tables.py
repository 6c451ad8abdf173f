"""The tables a compile derives from its fabric, its layout or its kernel are
built once and shared: presets are frozen shared values, a (fabric, page
size) has one layout and each layout one routing context, a job's ladders
share one per-DFG table, and none of it changes a byte or a counter."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro.compiler.ems as ems_mod
import repro.compiler.paged as paged_mod
import repro.dfg.analysis as analysis_mod
from repro.arch.cgra import CGRA
from repro.arch.presets import experiment_cgra, preset
from repro.compiler.routing import routing_context
from repro.pipeline.compile import CompileJob, compile_job_stats, make_layout

SRC = Path(__file__).resolve().parents[1] / "src"


def test_presets_are_shared_frozen_values():
    assert experiment_cgra(4) is experiment_cgra(4)
    assert preset("4x4") is experiment_cgra(4)
    assert preset("8x8-memcols") is preset("8x8-memcols")
    cgra = experiment_cgra(4)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cgra.rf_depth = 1
    assert cgra.fingerprint() is cgra.fingerprint()
    # a fabric built by hand is its own object, with its own layouts
    other = CGRA(4, 4, rf_depth=16)
    assert other == cgra and other is not cgra
    assert make_layout(other, 4) is not make_layout(cgra, 4)
    assert make_layout(other, 4).cgra is other


def _ladder_spaces(monkeypatch, jobs):
    """(layout, routing context) of every paged ladder each job climbs."""
    seen: list = []
    climb = paged_mod.climb_ladder

    def recording(mapper, dfg, **kwargs):
        seen[-1].append((mapper.layout, mapper._route_ctx))
        return climb(mapper, dfg, **kwargs)

    monkeypatch.setattr(paged_mod, "climb_ladder", recording)
    for job in jobs:
        seen.append([])
        compile_job_stats(job)
    return seen


def test_two_jobs_on_one_fabric_share_layout_and_routing_tables(monkeypatch):
    jobs = [CompileJob("sor", 4, 4), CompileJob("laplace", 4, 4, seed=1)]
    first, second = _ladder_spaces(monkeypatch, jobs)
    layout = make_layout(experiment_cgra(4), 4)
    # the chain ladder of each job runs on the one shared layout
    assert first[0][0] is layout and second[0][0] is layout
    assert first[0][1] is second[0][1] is routing_context(layout.cgra, layout)
    # so does every sub-chain both jobs climb
    by_pages = {lay.num_pages: (lay, ctx) for lay, ctx in first}
    for lay, ctx in second:
        if lay.num_pages in by_pages:
            assert (lay, ctx) == by_pages[lay.num_pages]
            assert lay is by_pages[lay.num_pages][0]


def test_a_jobs_ladders_build_its_dfg_tables_once(monkeypatch):
    built = {"tables": 0, "rec_mii": 0}

    def counted(name, fn):
        def wrapper(dfg):
            built[name] += 1
            return fn(dfg)

        return wrapper

    monkeypatch.setattr(
        ems_mod, "_build_dfg_tables", counted("tables", ems_mod._build_dfg_tables)
    )
    monkeypatch.setattr(analysis_mod, "_rec_mii", counted("rec_mii", analysis_mod._rec_mii))
    _artifact, stats = compile_job_stats(CompileJob("mpeg", 4, 2))
    assert len(stats.ladders) >= 3
    assert built == {"tables": 1, "rec_mii": 1}


_CHILD = """
import json, sys
from repro.pipeline.compile import CompileJob, compile_job_stats
artifact, stats = compile_job_stats(CompileJob(*json.loads(sys.argv[1])))
print(json.dumps([artifact.to_json(), stats.counters]))
"""


def test_a_job_after_others_equals_its_fresh_process_compile():
    """Tables warmed by earlier jobs of this process leave a later job's
    bytes and search counters exactly as a fresh interpreter makes them."""
    job = ("swim", 4, 4, 2)
    for warm in (("sor", 4, 4), ("swim", 4, 2), ("laplace", 4, 4, 1)):
        compile_job_stats(CompileJob(*warm))
    artifact, stats = compile_job_stats(CompileJob(*job))
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(job)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    fresh_bytes, fresh_counters = json.loads(child.stdout)
    assert artifact.to_json() == fresh_bytes
    assert stats.counters == fresh_counters


def _bytes_and_counters(job):
    artifact, stats = compile_job_stats(job)
    return artifact.to_json(), stats.counters


def test_two_threads_on_cold_shared_tables():
    """Two threads compile jobs on one fabric at once, from shared tables
    neither has warmed, switching every few bytecodes: every artifact and
    its search counters equal the serial compile's."""
    jobs = [CompileJob(k, 4, ps) for k in ("sor", "gsr") for ps in (2, 4)]
    routing_context.cache_clear()
    experiment_cgra(4).layouts.clear()
    results: dict = {}
    start = threading.Barrier(2)

    def work(name, order):
        start.wait()
        results[name] = [_bytes_and_counters(jobs[i]) for i in order]

    threads = [
        threading.Thread(target=work, args=(name, order))
        for name, order in (("a", [0, 1, 2, 3]), ("b", [3, 2, 1, 0]))
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    serial = [_bytes_and_counters(job) for job in jobs]
    assert results["a"] == serial
    assert results["b"] == serial[::-1]
