"""MOT-U — §IV's motivation, measured cycle-accurately.

The paper argues a single kernel cannot raise the array's utilization
(recurrences pin II regardless of array size), so throughput can only come
from co-residency: ``IPC = N x U_a``.  This bench measures *actual* PE
utilization on the simulated fabric: each one-page kernel alone on the
4x4 array, then four of them co-resident, executed together in one
cycle-accurate simulation.
"""

from __future__ import annotations

from conftest import emit
from repro.arch.cgra import CGRA
from repro.arch.memory import DataMemory
from repro.compiler.constraints import paged_bus_key
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.retarget import required_batches, retarget_firings
from repro.util.tables import format_table

KERNELS = ["sor", "gsr", "compress", "wavelet"]
TRIP = 32


def test_motivation_utilization(store):
    cgra = CGRA(4, 4, rf_depth=24)
    layout = PageLayout(cgra, (2, 2))
    compiled = {
        name: map_dfg_paged(get_kernel(name).build(), cgra, layout)
        for name in KERNELS
    }
    rows = []
    solo_utils = {}
    for name, pm in compiled.items():
        spec = get_kernel(name)
        _, arrays, _ = spec.fresh(seed=0, trip=TRIP)
        mem = DataMemory(1 << 16)
        for aname in sorted(arrays):
            mem.bind_array(aname, arrays[aname])
        res = simulate(
            lower_mapping(pm.mapping, mem, TRIP),
            cgra,
            mem,
            bus_key=paged_bus_key(pm.layout),
        )
        solo_utils[name] = res.utilization(cgra)
        rows.append([name, pm.ii, pm.pages_used, f"{res.utilization(cgra) * 100:.1f}%"])

    # four kernels co-resident, one per page, in one simulation
    mem = DataMemory(1 << 16)
    all_firings = []
    for tid, (name, pm) in enumerate(compiled.items()):
        spec = get_kernel(name)
        _, arrays, _ = spec.fresh(seed=100 + tid, trip=TRIP)
        prefix = f"t{tid}/"
        for aname in sorted(arrays):
            mem.bind_array(prefix + aname, arrays[aname])
        placement = PageMaster(pm.pages_used, pm.ii, pm.pages_used).place(
            batches=required_batches(pm.mapping, TRIP)
        )
        all_firings += retarget_firings(
            pm,
            placement,
            [tid],
            mem,
            TRIP,
            array_prefix=prefix,
            firing_tag=f"t{tid}",
            rf_limit=64,
        )
    multi = simulate(
        all_firings, cgra, mem, bus_key=paged_bus_key(layout), rf_depth=64
    )
    multi_util = multi.utilization(cgra)
    emit(
        format_table(
            ["kernel (alone)", "II", "pages used", "PE utilization"],
            rows,
            title="MOT-U — §IV: single-kernel vs multithreaded utilization (4x4)",
        )
    )
    emit(f"four kernels co-resident: PE utilization {multi_util * 100:.1f}%")
    # co-residency must beat every solo run by a wide margin
    assert multi_util > 2 * max(solo_utils.values())
