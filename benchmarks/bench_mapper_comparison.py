"""Mapper comparison — EMS-style compilation vs the PageMaster transformation.

§III's premise: a compile costs milliseconds to seconds; the transformation
costs under a millisecond.  Recompiling a kernel when a thread arrives is
therefore out of the question, which is why the paper adds compile-time
constraints plus a fast runtime transformation instead.  This bench times
the EMS-style mapper on a few kernels and contrasts it with the PageMaster
transformation's runtime.
"""

from __future__ import annotations

import gc
import time

from conftest import emit
from repro.arch.cgra import CGRA
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
        gc.collect()
        t0 = time.perf_counter()
        ems = map_dfg(dfg, cgra)
        t_ems = time.perf_counter() - t0
        validate_mapping(ems)
        rows.append([name, ems.ii, f"{t_ems * 1e3:.1f}"])
    # a full collection of the compiles' garbage (~25 ms under pytest) must
    # not land in, and be billed to, the sub-millisecond transformation
    gc.collect()
    t0 = time.perf_counter()
    PageMaster(4, 4, 2).place(batches=200)
    t_pm = time.perf_counter() - t0
    emit(
        format_table(
            ["kernel", "EMS II", "EMS ms"],
            rows,
            title="mapper comparison (4x4 CGRA)",
        )
    )
    emit(f"PageMaster transformation (4 pages, II 4, 200 batches): {t_pm * 1e3:.2f} ms")
    # the runtime transformation is orders of magnitude below compilation
    slowest_compile = max(float(r[2]) for r in rows)
    assert t_pm * 1e3 < slowest_compile
