"""Mid-kernel dynamic reshaping, cycle-accurately.

The paper's runtime shrinks and *expands* threads while they run ("threads
are expanded as other threads complete", §VII-B).  These tests execute a
kernel in two phases — first iterations on a PageMaster-shrunk schedule,
the rest on the full schedule (or another shrink) — handing execution over
at an iteration boundary, and require the final memory to be bit-exact
against the uninterrupted golden run.

For recurrence kernels the boundary state (the loop-carried values of the
last iterations of phase one) is handed off the way the paper's hardware
does implicitly: the runtime reads the carried values out of phase one and
preloads them as the next schedule's initial register contents (the DFG
edges' ``init`` values).
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.compiler.constraints import paged_bus_key
from repro.compiler.mapping import Mapping
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings
from repro.sim.trace import CycleTrace

TRIP = 20
SPLIT = 8


@pytest.fixture(scope="module")
def env():
    cgra = CGRA(4, 4, rf_depth=24)
    layout = PageLayout(cgra, (2, 2))
    return cgra, layout


def shrunk_firings(pm, mem, trip, m_cols, *, first_iteration=0):
    placement = PageMaster(
        pm.layout.num_pages, pm.ii, m_cols, wrap_used=pm.wrap_used
    ).place(batches=required_batches(pm.mapping, trip))
    return retarget_firings(
        pm,
        placement,
        list(range(m_cols)),
        mem,
        trip,
        rf_limit=64,
        first_iteration=first_iteration,
    )


@pytest.mark.parametrize("name", ["mpeg", "laplace", "swim", "wavelet"])
def test_expand_mid_kernel_acyclic(env, full_width, name):
    """Phase 1 shrunk to one page, phase 2 on the full array."""
    cgra, layout = env
    pm = full_width(get_kernel(name).build(), cgra, layout)
    spec = get_kernel(name)
    _, arrays, expected = spec.fresh(seed=13, trip=TRIP)
    mem = bind_memory(arrays)
    bk = paged_bus_key(layout)
    phase1 = shrunk_firings(pm, mem, SPLIT, 1)
    simulate(phase1, cgra, mem, bus_key=bk, rf_depth=64)
    phase2 = lower_mapping(
        pm.mapping, mem, TRIP - SPLIT, first_iteration=SPLIT
    )
    simulate(phase2, cgra, mem, bus_key=bk, rf_depth=64)
    snap = mem.snapshot()
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr]), (name, arr)


@pytest.mark.parametrize("name", ["sor", "gsr", "compress"])
def test_expand_mid_kernel_with_recurrence_handoff(env, full_width, name):
    """Recurrence kernels: carried values captured from phase one become
    phase two's preloaded initial registers."""
    cgra, layout = env
    dfg = get_kernel(name).build()
    pm = full_width(dfg, cgra, layout)
    spec = get_kernel(name)
    _, arrays, expected = spec.fresh(seed=13, trip=TRIP)
    mem = bind_memory(arrays)
    bk = paged_bus_key(layout)

    trace = CycleTrace()
    simulate(
        shrunk_firings(pm, mem, SPLIT, 2),
        cgra,
        mem,
        bus_key=bk,
        rf_depth=64,
        trace=trace,
    )

    # state handoff: for each loop-carried edge, read the producer's values
    # for iterations SPLIT-d .. SPLIT-1 out of the phase-one trace
    dfg2 = dfg.copy()
    for eid, e in list(dfg2.edges.items()):
        if e.distance == 0:
            continue
        producer = dfg.ops[e.src].label
        # labels are '<label>#<i>': match the producer exactly
        by_iter = {
            r.iteration: r.value
            for r in trace.records
            if r.label.split("#")[0] == producer
        }
        init = tuple(by_iter[SPLIT - e.distance + k] for k in range(e.distance))
        dfg2.edges[eid] = dc_replace(e, init=init)
    mapping2 = Mapping(
        cgra, dfg2, pm.ii, pm.mapping.placements, pm.mapping.routes
    )
    phase2 = lower_mapping(mapping2, mem, TRIP - SPLIT, first_iteration=SPLIT)
    simulate(phase2, cgra, mem, bus_key=bk, rf_depth=64)
    snap = mem.snapshot()
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr]), (name, arr)


def test_shrink_then_shrink_differently(env, full_width):
    """M=2 for the first iterations, then M=1 — two transformations of the
    same compiled schedule chained at a boundary."""
    cgra, layout = env
    name = "laplace"
    pm = full_width(get_kernel(name).build(), cgra, layout)
    spec = get_kernel(name)
    _, arrays, expected = spec.fresh(seed=13, trip=TRIP)
    mem = bind_memory(arrays)
    bk = paged_bus_key(layout)
    simulate(shrunk_firings(pm, mem, SPLIT, 2), cgra, mem, bus_key=bk, rf_depth=64)
    simulate(
        shrunk_firings(pm, mem, TRIP - SPLIT, 1, first_iteration=SPLIT),
        cgra,
        mem,
        bus_key=bk,
        rf_depth=64,
    )
    snap = mem.snapshot()
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr]), arr
