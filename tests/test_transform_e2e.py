"""End-to-end PageMaster tests: shrink a compiled kernel to every legal
page count, execute the transformed schedule cycle-accurately, and require
bit-exact outputs plus the predicted steady-state slowdown.

This is the paper's core claim made executable: "using frac of the
original CGRA causes an increase in execution time of only 1/frac".
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.compiler.constraints import paged_bus_key
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import bind_memory, get_kernel
from repro.pipeline.artifact import CompiledKernel
from repro.pipeline.store import ArtifactStore
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings
from repro.util.errors import SimulationError, TransformError

REPO_STORE = Path(__file__).resolve().parents[1] / ".repro_artifacts"
TRIP = 16
KERNELS = ["sor", "mpeg", "laplace", "swim", "wavelet", "gsr"]


@pytest.fixture(scope="module")
def compiled(full_width):
    cgra = CGRA(4, 4, rf_depth=24)
    layout = PageLayout(cgra, (2, 2))
    out = {name: full_width(get_kernel(name).build(), cgra, layout) for name in KERNELS}
    return cgra, layout, out


def run_shrunk(cgra, pm, m_cols, trip, *, start_pages=None):
    spec = get_kernel(pm.mapping.dfg.name)
    _, arrays, expected = spec.fresh(seed=7, trip=trip)
    mem = bind_memory(arrays)
    nb = required_batches(pm.mapping, trip)
    placement = PageMaster(
        pm.layout.num_pages, pm.ii, m_cols, wrap_used=pm.wrap_used
    ).place(batches=nb)
    targets = start_pages if start_pages is not None else list(range(m_cols))
    firings = retarget_firings(pm, placement, targets, mem, trip)
    result = simulate(
        firings, cgra, mem, bus_key=paged_bus_key(pm.layout), rf_depth=64
    )
    return result, mem.snapshot(), expected, placement


@pytest.mark.parametrize("name", KERNELS)
@pytest.mark.parametrize("m_cols", [1, 2, 3, 4])
def test_shrunk_execution_bit_exact(compiled, name, m_cols):
    cgra, _, mapped = compiled
    result, snap, expected, _ = run_shrunk(cgra, mapped[name], m_cols, TRIP)
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr]), (name, m_cols, arr)


@pytest.mark.parametrize("name", KERNELS)
def test_slowdown_tracks_steady_state_ii(compiled, name):
    """Measured cycles scale with the placement's exact steady-state II."""
    cgra, _, mapped = compiled
    pm = mapped[name]
    base, _, _, _ = run_shrunk(cgra, pm, 4, TRIP)
    for m_cols in (1, 2):
        res, _, _, placement = run_shrunk(cgra, pm, m_cols, TRIP)
        predicted = float(placement.ii_q_effective() / pm.ii)
        measured = res.cycles / base.cycles
        assert measured == pytest.approx(predicted, rel=0.15), (name, m_cols)


def test_single_page_fold_uses_only_registers(compiled):
    """Fig. 6 / §VI-E: folded onto one page, every transfer rides the
    rotating register files — zero global-storage traffic."""
    cgra, _, mapped = compiled
    for name in KERNELS:
        res, _, _, _ = run_shrunk(cgra, mapped[name], 1, TRIP)
        assert res.global_writes == 0, name
        assert res.global_reads == 0, name


def test_rf_depth_requirement_matches_paper(compiled):
    """§VI-E: ~N rotating registers suffice for the single-page fold."""
    cgra, layout, mapped = compiled
    n = layout.num_pages
    for name in KERNELS:
        res, _, _, _ = run_shrunk(cgra, mapped[name], 1, TRIP)
        assert res.rf_max_depth_used <= n + 1, (name, res.rf_max_depth_used)


def test_shrink_onto_different_physical_pages(compiled):
    """The target chain can be any contiguous page segment, e.g. the upper
    half of the array while another thread owns the lower half."""
    cgra, _, mapped = compiled
    pm = mapped["sor"]
    res, snap, expected, _ = run_shrunk(cgra, pm, 2, TRIP, start_pages=[2, 3])
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr])


def test_non_contiguous_targets_rejected(compiled):
    cgra, _, mapped = compiled
    pm = mapped["sor"]
    spec = get_kernel("sor")
    _, arrays, _ = spec.fresh(seed=7, trip=4)
    mem = bind_memory(arrays)
    nb = required_batches(pm.mapping, 4)
    placement = PageMaster(4, pm.ii, 2).place(batches=nb)
    with pytest.raises(TransformError):
        retarget_firings(pm, placement, [0, 2], mem, 4)


def test_insufficient_batches_rejected(compiled):
    cgra, _, mapped = compiled
    pm = mapped["sor"]
    _, arrays, _ = get_kernel("sor").fresh(seed=7, trip=TRIP)
    mem = bind_memory(arrays)
    placement = PageMaster(4, pm.ii, 2).place(batches=3)
    with pytest.raises(TransformError):
        retarget_firings(pm, placement, [0, 1], mem, TRIP)


def test_mismatched_placement_rejected(compiled):
    cgra, _, mapped = compiled
    pm = mapped["sor"]
    _, arrays, _ = get_kernel("sor").fresh(seed=7, trip=4)
    mem = bind_memory(arrays)
    placement = PageMaster(6, pm.ii, 2).place(batches=64)  # wrong N
    with pytest.raises(TransformError):
        retarget_firings(pm, placement, [0, 1], mem, 4)


@pytest.mark.parametrize(
    "trip, keywords, message",
    [
        (-1, {}, "trip count must be >= 0, got -1"),
        (4, {"start_cycle": -2}, "start_cycle must be >= 0, got -2"),
    ],
)
def test_both_entry_points_reject_negative_arguments(compiled, trip, keywords, message):
    """One stamping routine, one validation: ``retarget_firings`` used to
    return [] for a negative trip and pass a negative start through."""
    cgra, _, mapped = compiled
    pm = mapped["sor"]
    _, arrays, _ = get_kernel("sor").fresh(seed=7, trip=4)
    placement = PageMaster(4, pm.ii, 2).place(batches=required_batches(pm.mapping, 4))
    with pytest.raises(SimulationError, match=message):
        lower_mapping(pm.mapping, bind_memory(arrays), trip, **keywords)
    with pytest.raises(SimulationError, match=message):
        retarget_firings(pm, placement, [0, 1], bind_memory(arrays), trip, **keywords)


def test_zigzag_m3_is_faster_than_m2(compiled):
    """More pages -> faster, even through the zigzag path (M=3 of 4)."""
    cgra, _, mapped = compiled
    pm = mapped["swim"]
    res2, _, _, _ = run_shrunk(cgra, pm, 2, TRIP)
    res3, _, _, _ = run_shrunk(cgra, pm, 3, TRIP)
    res4, _, _, _ = run_shrunk(cgra, pm, 4, TRIP)
    assert res4.cycles <= res3.cycles <= res2.cycles


def test_tiny_register_file_falls_back_to_global_storage(compiled):
    """With rf_limit=1 every stretched transfer must ride the reserved
    global storage area instead of rotating registers — results identical,
    traffic all accounted."""
    cgra, _, mapped = compiled
    pm = mapped["mpeg"]
    spec = get_kernel("mpeg")
    _, arrays, expected = spec.fresh(seed=7, trip=TRIP)
    mem = bind_memory(arrays)
    nb = required_batches(pm.mapping, TRIP)
    placement = PageMaster(pm.layout.num_pages, pm.ii, 1).place(batches=nb)
    firings = retarget_firings(pm, placement, [0], mem, TRIP, rf_limit=1)
    res = simulate(firings, cgra, mem, bus_key=paged_bus_key(pm.layout), rf_depth=64)
    snap = mem.snapshot()
    for arr in expected:
        assert np.array_equal(snap[arr], expected[arr]), arr
    assert res.global_writes > 0 and res.global_reads > 0
    # and the timing is unchanged: the placement dictates the cycles
    rf_res, _, _, _ = run_shrunk(cgra, pm, 1, TRIP)
    assert res.cycles == rf_res.cycles


def test_simulate_accepts_firings_in_any_order(compiled):
    """``simulate`` sorts internally: seeded shuffles of a folded program
    (register reads, global-storage round trips, loads and stores) give the
    same SimResult and memory as the sorted list."""
    import random

    cgra, _, mapped = compiled
    pm = mapped["mpeg"]
    _, arrays, expected = get_kernel("mpeg").fresh(seed=7, trip=TRIP)
    placement = PageMaster(pm.layout.num_pages, pm.ii, 2).place(
        batches=required_batches(pm.mapping, TRIP)
    )
    firings = retarget_firings(
        pm, placement, [0, 1], bind_memory(arrays), TRIP, rf_limit=2
    )
    assert any(f.global_writes for f in firings)

    def run(order):
        mem = bind_memory(arrays)
        res = simulate(order, cgra, mem, bus_key=paged_bus_key(pm.layout), rf_depth=64)
        return res, mem.snapshot()

    base, base_snap = run(firings)
    for arr in expected:
        assert np.array_equal(base_snap[arr], expected[arr]), arr
    rng = random.Random(20260930)
    for _ in range(3):
        shuffled = list(firings)
        rng.shuffle(shuffled)
        res, snap = run(shuffled)
        assert res == base
        assert all(np.array_equal(snap[a], base_snap[a]) for a in base_snap)


def test_retarget_deterministic(compiled):
    cgra, _, mapped = compiled
    pm = mapped["swim"]
    spec = get_kernel("swim")
    nb = required_batches(pm.mapping, TRIP)
    placement = PageMaster(pm.layout.num_pages, pm.ii, 2).place(batches=nb)
    outs = []
    for _ in range(2):
        _, arrays, _ = spec.fresh(seed=7, trip=TRIP)
        mem = bind_memory(arrays)
        firings = retarget_firings(pm, placement, [0, 1], mem, TRIP)
        outs.append([(f.cycle, f.pe, f.label) for f in firings])
    assert outs[0] == outs[1]


@pytest.mark.skipif(not REPO_STORE.is_dir(), reason="committed artifact store not present")
def test_unfolded_committed_schedules_fire_on_the_compiled_pes():
    """M = N folds nothing: on every wrap-free committed schedule (4x4, 6x6
    and 8x8), each page lands on its own tile, so the retargeted program
    fires every item on the PE and cycle ``lower_mapping`` uses."""
    checked = 0
    for path, is_artifact in ArtifactStore(REPO_STORE).walk():
        if not is_artifact:
            continue
        artifact = CompiledKernel.from_json_dict(json.loads(path.read_bytes()))
        if artifact.unmappable or artifact.wrap_used:
            continue
        pm = artifact.materialize(get_kernel(artifact.kernel).build())
        _, arrays, _ = get_kernel(artifact.kernel).fresh(seed=7, trip=4)
        n = artifact.pages_used
        placement = PageMaster(n, pm.ii, n).place(
            batches=required_batches(pm.mapping, 4)
        )
        folded = retarget_firings(pm, placement, list(range(n)), bind_memory(arrays), 4)
        compiled = lower_mapping(pm.mapping, bind_memory(arrays), 4)
        assert sorted((f.cycle, f.pe, f.label) for f in folded) == sorted(
            (f.cycle, f.pe, f.label) for f in compiled
        ), path.name
        checked += 1
    assert checked == 85
