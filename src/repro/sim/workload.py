"""Workload generation for the multithreading experiments (§VII-B.1).

"We run 1, 2, 4, 8, and 16 threads in parallel for each of the CGRA needs.
Each thread is randomly and independently generated, where portions of the
thread are either assigned to the processor or the CGRA.  For portions
assigned to the CGRA, the schedule that is ran is randomly chosen so as to
not create bias towards any one kernel."

A thread is a sequence of segments alternating between CPU work (cycles on
the host core) and CGRA kernels (a kernel name plus a trip count).  The
*CGRA need* (50% / 75% / 87.5% in the paper) is the fraction of the
thread's nominal single-threaded execution time spent in CGRA kernels,
where a kernel's nominal time is ``trip x II`` on the full array.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Sequence

from repro.util.errors import WorkloadError
from repro.util.rng import PCG64Stream

__all__ = [
    "Segment",
    "ThreadSpec",
    "ServiceClass",
    "DEFAULT_CLASSES",
    "ARRIVAL_MODELS",
    "generate_workload",
    "generate_trace",
]


@dataclass(frozen=True)
class Segment:
    """One phase of a thread: CPU cycles or a CGRA kernel invocation."""

    kind: str  # "cpu" | "cgra"
    cycles: int = 0  # cpu only
    kernel: str = ""  # cgra only
    trip: int = 0  # cgra only

    def __post_init__(self) -> None:
        if self.kind == "cpu":
            if self.cycles <= 0:
                raise WorkloadError(f"cpu segment needs cycles > 0, got {self.cycles}")
        elif self.kind == "cgra":
            if not self.kernel or self.trip <= 0:
                raise WorkloadError("cgra segment needs a kernel and trip > 0")
        else:
            raise WorkloadError(f"unknown segment kind {self.kind!r}")


@dataclass(frozen=True)
class ThreadSpec:
    """A generated thread: its segments in execution order, starting at
    ``arrival`` (cycles; the paper's experiment launches all threads
    together, arrival 0, but the runtime handles staggered invocation —
    "threads can be invoked at runtime", §III)."""

    tid: int
    segments: tuple[Segment, ...]
    arrival: int = 0


def generate_workload(
    n_threads: int,
    cgra_need: float,
    kernels: Sequence[str],
    nominal_ii: dict[str, int],
    *,
    seed: int = 0,
    mean_total_work: int = 50_000,
    phases_per_thread: int = 6,
    mean_arrival_gap: int = 0,
) -> list[ThreadSpec]:
    """Generate *n_threads* independent random threads.

    Each thread's total nominal work is ``mean_total_work`` +/- 25 %;
    it is split into ``phases_per_thread`` (CPU, CGRA) phase pairs of
    random relative sizes, with the CGRA share fixed at *cgra_need* and
    kernels drawn uniformly.  ``mean_arrival_gap > 0`` staggers thread
    launches with exponential inter-arrival times (the paper launches all
    threads at once, the default).  Every draw comes from
    :class:`~repro.util.rng.PCG64Stream`, numpy's ``default_rng(seed)``
    draw for draw.
    """
    if not 0.0 < cgra_need < 1.0:
        raise WorkloadError(f"cgra_need must be in (0,1), got {cgra_need}")
    if n_threads < 1:
        raise WorkloadError(f"n_threads must be >= 1, got {n_threads}")
    if not kernels:
        raise WorkloadError("kernel list is empty")
    for k in kernels:
        if k not in nominal_ii:
            raise WorkloadError(f"no nominal II for kernel {k!r}")
    if phases_per_thread < 1:
        raise WorkloadError(
            f"phases_per_thread must be >= 1, got {phases_per_thread}"
        )
    _check_sizes(mean_arrival_gap, mean_total_work)
    rng = PCG64Stream(seed)
    threads: list[ThreadSpec] = []
    arrival = 0
    for tid in range(n_threads):
        if mean_arrival_gap > 0 and tid > 0:
            arrival += int(rng.exponential(mean_arrival_gap))
        total = mean_total_work * _jittered(rng)
        segments = _phase_segments(
            rng, total, cgra_need, kernels, nominal_ii, phases_per_thread
        )
        threads.append(ThreadSpec(tid, segments, arrival))
    return threads


def _check_sizes(mean_arrival_gap: float, mean_total_work: float) -> None:
    # chained compares: NaN fails them, so it is refused with infinity
    if not 0 <= mean_arrival_gap < math.inf:
        raise WorkloadError(
            f"mean_arrival_gap must be finite and >= 0, got {mean_arrival_gap}"
        )
    if not 0 < mean_total_work < math.inf:
        raise WorkloadError(
            f"mean_total_work must be finite and > 0, got {mean_total_work}"
        )


#: a thread's length is drawn uniformly within +/- this share of its mean
_JITTER = 0.25


def _jittered(rng: PCG64Stream) -> float:
    return 1.0 + _JITTER * (2 * rng.random() - 1.0)


def _float_sum(values: list[float]) -> float:
    """*values* summed left to right: numpy's ``ndarray.sum()`` below 8
    values, which covers every phase and class count in use (from 8 on,
    numpy adds in eight lanes and may differ in the last bit).  ``sum()``
    is no substitute: from Python 3.12 it compensates floats."""
    total = 0.0
    for value in values:
        total += value
    return total


def _phase_segments(
    rng: PCG64Stream,
    total: float,
    cgra_need: float,
    kernels: Sequence[str],
    nominal_ii: dict[str, int],
    phases: int,
) -> tuple[Segment, ...]:
    """Split *total* nominal work into (CPU, CGRA) phase pairs.

    The draw order is part of the determinism contract: recorded bench
    baselines replay byte-identically as long as this consumes the rng in
    the same sequence.
    """
    cgra_work = total * cgra_need
    cpu_work = total - cgra_work
    # random phase weights, one pair per phase, all CPU weights drawn first
    w_cpu = [rng.random() + 0.2 for _ in range(phases)]
    w_acc = [rng.random() + 0.2 for _ in range(phases)]
    cpu_sum = _float_sum(w_cpu)
    acc_sum = _float_sum(w_acc)
    w_cpu = [w / cpu_sum for w in w_cpu]
    w_acc = [w / acc_sum for w in w_acc]
    segments: list[Segment] = []
    for p in range(phases):
        cpu_cycles = max(1, round(cpu_work * w_cpu[p]))
        segments.append(Segment("cpu", cycles=cpu_cycles))
        kernel = kernels[rng.integers(len(kernels))]
        ii = nominal_ii[kernel]
        trip = max(1, round(cgra_work * w_acc[p] / ii))
        segments.append(Segment("cgra", kernel=kernel, trip=trip))
    return tuple(segments)


# -- trace-driven generation ------------------------------------------------------
#
# Datacenter-style load is not "N identical threads at t=0": requests come
# in bursts and carry different service classes.  `generate_trace` models
# both while staying seeded and deterministic
# — the same (seed, parameters) pair always produces the identical trace,
# which is what lets policy comparisons and recorded benchmark runs be
# replayed bit-for-bit.


@dataclass(frozen=True)
class ServiceClass:
    """One service class of a trace.

    ``weight`` is the relative share of threads drawn from this class,
    ``work_scale`` scales the class's mean thread length, and ``phases``
    its number of (CPU, CGRA) phase pairs.
    """

    name: str
    weight: float
    work_scale: float = 1.0
    phases: int = 4

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise WorkloadError(f"class {self.name}: weight must be > 0")
        if self.work_scale <= 0:
            raise WorkloadError(f"class {self.name}: work_scale must be > 0")
        if self.phases < 1:
            raise WorkloadError(f"class {self.name}: phases must be >= 1")


#: batch jobs dominate thread count; interactive and realtime threads are
#: shorter, with fewer phases
DEFAULT_CLASSES: tuple[ServiceClass, ...] = (
    ServiceClass("batch", weight=0.6, work_scale=1.0, phases=6),
    ServiceClass("interactive", weight=0.3, work_scale=0.4, phases=4),
    ServiceClass("realtime", weight=0.1, work_scale=0.15, phases=2),
)

ARRIVAL_MODELS = ("all-at-once", "poisson", "bursty")


def _arrival_times(
    rng: PCG64Stream, n: int, model: str, mean_gap: float, burst_size: int
) -> list[int]:
    """Nondecreasing integer arrival times for *n* threads (first at 0)."""
    if model == "all-at-once" or mean_gap == 0:
        return [0] * n
    if model == "poisson":
        gaps = [int(rng.exponential(mean_gap)) for _ in range(n)]
        gaps[0] = 0
        return list(accumulate(gaps))
    # bursty: bursts of ~burst_size threads arrive together; gaps between
    # bursts stretched so the long-run arrival rate matches poisson's
    sizes = [1 + rng.poisson(burst_size - 1) for _ in range(n)]
    n_bursts = bisect_left(list(accumulate(sizes)), n) + 1
    burst_gap = mean_gap * burst_size
    gaps = [int(rng.exponential(burst_gap)) for _ in range(n_bursts)]
    gaps[0] = 0
    arrivals: list[int] = []
    for start, size in zip(accumulate(gaps), sizes):
        arrivals += [start] * size
    return arrivals[:n]


def generate_trace(
    n_threads: int,
    cgra_need: float,
    kernels: Sequence[str],
    nominal_ii: dict[str, int],
    *,
    seed: int = 0,
    arrival_model: str = "poisson",
    mean_arrival_gap: float = 20.0,
    burst_size: int = 8,
    classes: Sequence[ServiceClass] = DEFAULT_CLASSES,
    mean_total_work: int = 2_000,
) -> list[ThreadSpec]:
    """Generate a datacenter-style arrival trace of *n_threads* threads.

    Arrivals follow *arrival_model* (see :data:`ARRIVAL_MODELS`); each
    thread draws a service class from *classes* by weight, which sets its
    mean length (``work_scale * mean_total_work``, +/- 25 %) and phase
    count.  A ``mean_arrival_gap`` of 0 launches every thread at cycle 0
    whatever the model.  Fully deterministic for a given seed and parameter
    set: the draws are :func:`generate_workload`'s, and the class draw is
    numpy's ``choice(p=)`` (every class before the first thread).
    """
    if not 0.0 < cgra_need < 1.0:
        raise WorkloadError(f"cgra_need must be in (0,1), got {cgra_need}")
    if n_threads < 1:
        raise WorkloadError(f"n_threads must be >= 1, got {n_threads}")
    if not kernels:
        raise WorkloadError("kernel list is empty")
    for k in kernels:
        if k not in nominal_ii:
            raise WorkloadError(f"no nominal II for kernel {k!r}")
    if not classes:
        raise WorkloadError("trace needs at least one service class")
    if arrival_model not in ARRIVAL_MODELS:
        raise WorkloadError(
            f"unknown arrival model {arrival_model!r}; "
            f"expected one of {ARRIVAL_MODELS}"
        )
    _check_sizes(mean_arrival_gap, mean_total_work)
    if burst_size < 1:
        raise WorkloadError(f"burst_size must be >= 1, got {burst_size}")
    rng = PCG64Stream(seed)
    arrivals = _arrival_times(
        rng, n_threads, arrival_model, mean_arrival_gap, burst_size
    )
    weights = [float(c.weight) for c in classes]
    weight_sum = _float_sum(weights)
    cdf = list(accumulate(w / weight_sum for w in weights))
    cdf = [c / cdf[-1] for c in cdf]
    class_idx = [bisect_right(cdf, rng.random()) for _ in range(n_threads)]
    threads: list[ThreadSpec] = []
    for tid in range(n_threads):
        cls = classes[class_idx[tid]]
        total = cls.work_scale * mean_total_work * _jittered(rng)
        segments = _phase_segments(
            rng, total, cgra_need, kernels, nominal_ii, cls.phases
        )
        threads.append(ThreadSpec(tid, segments, arrivals[tid]))
    return threads
