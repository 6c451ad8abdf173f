"""Mapper comparison — EMS-style greedy vs DRESC-style simulated annealing.

§III's premise: existing CGRA compilation (DRESC's simulated annealing) is
far too slow to run at thread-arrival time, which is why the paper adds
compile-time constraints plus a fast runtime transformation instead of
recompiling.  This bench reproduces that cost gap on the same kernels and
contrasts both with the PageMaster transformation's runtime.
"""

from __future__ import annotations

import time

from conftest import emit
from repro.arch.cgra import CGRA
from repro.compiler.annealing import anneal_map
from repro.compiler.check import validate_mapping
from repro.compiler.ems import map_dfg
from repro.core.pagemaster import PageMaster
from repro.kernels import get_kernel
from repro.util.tables import format_table

KERNELS = ["mpeg", "sor", "laplace", "wavelet"]


def test_mapper_comparison():
    cgra = CGRA(4, 4)
    rows = []
    for name in KERNELS:
        dfg = get_kernel(name).build()
        t0 = time.perf_counter()
        ems = map_dfg(dfg, cgra)
        t_ems = time.perf_counter() - t0
        validate_mapping(ems)
        t0 = time.perf_counter()
        sa = anneal_map(dfg, cgra, seed=1, max_ii=ems.ii + 4)
        t_sa = time.perf_counter() - t0
        validate_mapping(sa)
        rows.append([name, ems.ii, f"{t_ems * 1e3:.0f}", sa.ii, f"{t_sa * 1e3:.0f}"])
    t0 = time.perf_counter()
    PageMaster(4, 4, 2).place(batches=200)
    t_pm = time.perf_counter() - t0
    emit(
        format_table(
            ["kernel", "EMS II", "EMS ms", "SA II", "SA ms"],
            rows,
            title="mapper comparison (4x4 CGRA)",
        )
    )
    emit(f"PageMaster transformation (4 pages, II 4, 200 batches): {t_pm * 1e3:.2f} ms")
    # the runtime transformation is orders of magnitude below compilation
    slowest_compile = max(float(r[4]) for r in rows)
    assert t_pm * 1e3 < slowest_compile
