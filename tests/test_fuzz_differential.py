"""Differential fuzzing: random kernels, mapped and simulated, must agree
bit-exactly with the reference interpreter — through the baseline
compiler, the paged compiler, and PageMaster shrinks, the last also at the
fabric's own register-file depth."""

from __future__ import annotations

import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.kernels
import repro.pipeline.compile as compile_mod
from repro.analysis.audit import audit_file
from repro.analysis.findings import Severity
from repro.arch.cgra import CGRA
from repro.arch.presets import preset
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import paged_bus_key, slot_capacity
from repro.compiler.ems import MapperConfig, map_dfg
from repro.compiler.feas import ii_lower_bound
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.core.transform_check import check_placement
from repro.dfg.random_dfg import random_arrays, random_dfg
from repro.dfg.validate import validate_dfg
from repro.kernels.spec import bind_memory
from repro.pipeline.compile import CompileJob, compile_job_stats
from repro.pipeline.store import ArtifactStore
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.reference import run_reference
from repro.sim.retarget import required_batches, retarget_firings
from repro.util.errors import LadderExhausted, MappingError, TransformError

TRIP = 12


def reference_outputs(dfg, seed):
    arrays = random_arrays(dfg, seed, TRIP)
    expected = run_reference(dfg, {k: v.copy() for k, v in arrays.items()}, TRIP)
    return arrays, expected


def outputs_of(mem, dfg):
    return {
        op.memref.array: mem.read_array(op.memref.array)
        for op in dfg.ops.values()
        if op.memref is not None and op.opcode.value == "store"
    }


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_property_random_dfgs_well_formed(seed):
    dfg = random_dfg(seed, n_ops=int(5 + seed % 9))
    validate_dfg(dfg)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_property_baseline_map_simulate_equals_reference(seed):
    dfg = random_dfg(seed, n_ops=int(4 + seed % 8))
    cgra = CGRA(4, 4, rf_depth=8)
    try:
        m = map_dfg(dfg, cgra, config=MapperConfig(max_ii=10, attempts_per_ii=2))
    except MappingError:
        return  # rare congested case: not a correctness failure
    validate_mapping(m)
    arrays, expected = reference_outputs(dfg, seed)
    mem = bind_memory(arrays)
    simulate(lower_mapping(m, mem, TRIP), cgra, mem)
    for name, data in outputs_of(mem, dfg).items():
        assert np.array_equal(data, expected[name]), name


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_property_paged_and_shrunk_equal_reference(seed):
    dfg = random_dfg(seed, n_ops=int(4 + seed % 6))
    cgra = CGRA(4, 4, rf_depth=24)
    layout = PageLayout(cgra, (2, 2))
    try:
        pm = map_dfg_paged(
            dfg, cgra, layout, config=MapperConfig(max_ii=10, attempts_per_ii=2)
        )
    except MappingError:
        return
    arrays, expected = reference_outputs(dfg, seed)
    bk = paged_bus_key(pm.layout)

    mem = bind_memory({k: v.copy() for k, v in arrays.items()})
    simulate(lower_mapping(pm.mapping, mem, TRIP), cgra, mem, bus_key=bk)
    for name, data in outputs_of(mem, dfg).items():
        assert np.array_equal(data, expected[name]), ("paged", name)

    for m_cols in {1, max(1, pm.pages_used // 2), pm.pages_used}:
        placement = PageMaster(
            pm.pages_used, pm.ii, m_cols, wrap_used=pm.wrap_used
        ).place(batches=required_batches(pm.mapping, TRIP))
        mem2 = bind_memory({k: v.copy() for k, v in arrays.items()})
        firings = retarget_firings(
            pm, placement, list(range(m_cols)), mem2, TRIP, rf_limit=64
        )
        simulate(firings, cgra, mem2, bus_key=bk, rf_depth=64)
        for name, data in outputs_of(mem2, dfg).items():
            assert np.array_equal(data, expected[name]), ("shrunk", m_cols, name)


@pytest.mark.parametrize("seed", [3, 17, 99, 256, 1024])
def test_known_seeds_full_pipeline(seed):
    """Deterministic regression points through the whole pipeline."""
    dfg = random_dfg(seed, n_ops=8, n_outputs=2)
    validate_dfg(dfg)
    cgra = CGRA(4, 4, rf_depth=24)
    m = map_dfg(dfg, cgra)
    validate_mapping(m)
    arrays, expected = reference_outputs(dfg, seed)
    mem = bind_memory(arrays)
    simulate(lower_mapping(m, mem, TRIP), cgra, mem)
    for name, data in outputs_of(mem, dfg).items():
        assert np.array_equal(data, expected[name])


# -- every fold at the fabric's real register depth ----------------------------------

#: Seeds of the tier-1 slice.  A draw's fabric and page size follow its
#: seed, so the slice meets both fabrics at both page sizes.
REAL_DEPTH_SEEDS = tuple(range(16))
REAL_DEPTH_FABRICS = ("4x4", "4x4-memcols")
#: Draws that map on neither ladder at II <= 10, so ``compile_job_stats``
#: raises and stores nothing.  (Draw 11's whole-array ladder exhausts too,
#: but its paged ladder maps it at II 6, and the job stores that mapping
#: as its base mapping as well.)
BASE_EXHAUSTED = frozenset({13})


def firing_sites(firings):
    """Where and when each firing executes, in a comparable order."""
    return sorted((f.cycle, f.pe, f.label) for f in firings)


def fold_at_real_depth(seed, store_root):
    """Compile ``random_dfg(seed)`` as a job, store it under *store_root*,
    audit the stored file (no ERROR finding), and run the artifact folded
    onto every M <= ``pages_used``, retargeted and simulated at the
    fabric's own ``rf_depth`` (values that wait longer go through global
    storage).  A wrap-free schedule at M = ``pages_used`` must fire
    exactly where and when ``lower_mapping`` fires it.  Returns ``(folds run, refused folds)``; a refusal is
    ``(draw, M, reason)``.  A kernel the paged ladder cannot map runs no
    fold."""
    fabric = REAL_DEPTH_FABRICS[seed % 2]
    page_size = (2, 4)[seed // 2 % 2]
    draw = f"seed {seed} {fabric} ps{page_size}"
    cgra = preset(fabric)
    n_ops = 4 + seed % 7
    dfg = random_dfg(seed, n_ops=n_ops)
    config = MapperConfig(max_ii=10, attempts_per_ii=2)
    job = CompileJob("drawn", 4, page_size, mapper=config, arch=fabric)
    # the kernel lookups of the compile and of the audit find the draw
    drawn = types.SimpleNamespace(build=lambda: random_dfg(seed, n_ops=n_ops))
    with (
        mock.patch.object(compile_mod, "get_kernel", lambda name: drawn),
        mock.patch.object(repro.kernels, "get_kernel", lambda name: drawn),
    ):
        try:
            artifact = compile_job_stats(job)[0]
        except LadderExhausted:
            artifact = None
        else:
            path = ArtifactStore(store_root).put(artifact)
            entry = audit_file(path, path.relative_to(store_root).as_posix())
    if artifact is None:
        # neither ladder maps the draw: no artifact to audit or fold
        assert seed in BASE_EXHAUSTED, draw
        return 0, []
    assert seed not in BASE_EXHAUSTED, draw
    errors = [f for f in entry.findings if f.severity is Severity.ERROR]
    assert not errors, (draw, errors)
    if artifact.unmappable:
        return 0, []
    pm = artifact.materialize(dfg)
    cap = slot_capacity(cgra, pm.layout)
    bound = ii_lower_bound(
        dfg,
        num_pes=cap.pes,
        mem_slots=cap.bus_ports,
        mem_capable_pes=cap.mem_pes,
        max_ii=pm.ii,
    )
    assert bound.mii <= pm.ii, draw
    arrays, expected = reference_outputs(dfg, seed)
    bus_key = paged_bus_key(pm.layout)
    ran, refused = 0, []
    for m in range(1, pm.pages_used + 1):
        placement = PageMaster(
            pm.pages_used, pm.ii, m, wrap_used=pm.wrap_used
        ).place(batches=required_batches(pm.mapping, TRIP))
        check_placement(placement)
        mem = bind_memory({k: v.copy() for k, v in arrays.items()})
        unfolded = m == pm.pages_used and not pm.wrap_used
        try:
            firings = retarget_firings(pm, placement, list(range(m)), mem, TRIP)
        except TransformError as exc:
            assert not unfolded, (draw, str(exc))
            refused.append((draw, m, str(exc)))
            continue
        if unfolded:
            # every page lands on its own tile: the compiled schedule
            compiled = lower_mapping(pm.mapping, bind_memory(arrays), TRIP)
            assert firing_sites(firings) == firing_sites(compiled), draw
        simulate(firings, cgra, mem, bus_key=bus_key)
        for name, data in outputs_of(mem, dfg).items():
            assert np.array_equal(data, expected[name]), (draw, m, name)
        ran += 1
    return ran, refused


def test_every_fold_at_the_real_register_depth_equals_reference(tmp_path):
    """No ``rf_limit`` or ``rf_depth`` override: the register-usage
    constraint (§VI-B a) and the global-storage fallback at the depth the
    fabric has, on artifacts the auditor passes.  Refused folds are
    reported (``-s``), not failed: on ``4x4-memcols`` the fold's mirroring
    puts memory ops on columns without the capability (ROADMAP item 4)."""
    ran, refused = 0, []
    for seed in REAL_DEPTH_SEEDS:
        r, no = fold_at_real_depth(seed, tmp_path)
        ran += r
        refused += no
    print(f"real-depth folds: {ran} run, {len(refused)} refused")
    for draw, m, reason in refused:
        print(f"  refused {draw} M={m}: {reason}")
    assert ran
