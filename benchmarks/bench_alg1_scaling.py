"""ALG1 — Algorithm 1 complexity: "placePage runs in constant time and is
called for each page in P ... low-order polynomial time".

Benchmarks the PageMaster transformation runtime and checks it scales
linearly in the number of page instances placed (N x batches), which is
the paper's claim restated for our batch formulation.
"""

from __future__ import annotations

import time

from conftest import emit
from repro.core.pagemaster import PageMaster
from repro.util.tables import format_table


def _time_placement(n: int, m: int, batches: int) -> float:
    t0 = time.perf_counter()
    PageMaster(n, 2, m).place(batches=batches)
    return time.perf_counter() - t0


def test_alg1_runtime_linear_in_instances():
    """Each configuration is timed as the best of 5 runs: a process sharing
    the cores can only lengthen a run, so the minimum is the placement's
    own cost and the ratio below compares like with like."""
    rows = []
    per_instance = []
    for n, batches in [(8, 200), (16, 200), (32, 200), (16, 400), (16, 800)]:
        m = n - 1  # zigzag path (the expensive one): m never divides n
        dt = min(_time_placement(n, m, batches) for _ in range(5))
        rows.append([n, m, batches, n * batches, f"{dt * 1e3:.1f}"])
        per_instance.append(dt / (n * batches))
    emit(
        format_table(
            ["N", "M", "batches", "instances", "ms"],
            rows,
            title="Algorithm 1 — transformation runtime (best of 5)",
        )
    )
    # linearity: per-instance cost stays within a small factor across sizes
    assert max(per_instance) < 8 * min(per_instance)


def test_alg1_is_fast_enough_for_runtime_use():
    """§III: scheduling must be fast enough to run at thread arrival.
    A realistic transformation (16 pages folded to 7, II 2, 500 batches:
    8000 page instances) takes ~20 ms in this Python model; the bound
    leaves 5x for a loaded host.  Recorded timings live in ``perf/``."""
    dt = min(_time_placement(16, 7, 500) for _ in range(3))
    emit(f"16-page, 500-batch transformation: {dt * 1e3:.1f} ms (best of 3)")
    assert dt < 0.1
