"""COMPILE SPEED — cold mapper wall clock per kernel (no artifact cache).

Unlike the figure benches, this target deliberately bypasses the
repository artifact store: the thing under measurement is the
place-and-route mapper itself.  It compiles a fast subset of the 4x4
suite (the full sweep, including the slow sobel/fft searches, is
``python -m repro.bench compile-speed``; the recorded measurement is
``perf/``'s ``compile_flat_4x4`` workload, and ``BENCH_compile_speed.json``
is the frozen history up to PR 14) and prints the search-effort counters
— routing-state expansions, BFS/DFS invocations, placement probes — that
put the timings in context.
"""

from __future__ import annotations

import pytest

from conftest import emit
from repro.pipeline.compile import CompileJob, compile_job_stats

# Kernels whose cold compiles are sub-second even on the slowest CI box;
# sobel/fft are excluded on purpose (minutes-scale pre-optimisation).
FAST_KERNELS = ["mpeg", "sor", "gsr", "laplace", "wavelet", "swim"]


@pytest.mark.parametrize("page_size", [2, 4])
def test_cold_compile_fast_suite(benchmark, page_size):
    def run():
        return [
            compile_job_stats(CompileJob(kernel, 4, page_size))[1]
            for kernel in FAST_KERNELS
        ]

    stats = benchmark.pedantic(run, iterations=1, rounds=3)
    lines = []
    for st in stats:
        c = st.counters
        lines.append(
            f"{st.kernel:<10} {st.seconds:7.3f}s  "
            f"expansions={c['expansions']:>7} probes={c['placement_probes']:>6} "
            f"bfs={c['bfs_calls']:>5} dfs={c['dfs_calls']:>5}"
        )
    emit(f"cold 4x4 compiles, page size {page_size}:\n" + "\n".join(lines))
    assert all(st.counters["route_calls"] > 0 for st in stats)
