"""How fast the host is running right now, sampled while the benchmark works.

The benchmark's hosts are small shared virtual machines.  What their
neighbours do slows a process down by 1.2-1.8x for seconds or minutes at a
time, then stops: ten back-to-back runs of identical work spread 7-30 % in raw
seconds, and a whole set of runs can sit 28 % above the next one.  No statistic
over the repeats of one run removes that (the fastest of nine repeats in eight
seconds is still slow when all eight seconds were), so the timed metrics are
corrected for it instead.

A :class:`HostSpeed` runs a fixed *probe* — ten thousand dict and list
look-ups with a little integer arithmetic, over a working set larger than the
L2 cache, about 1 ms — on the main thread every :data:`INTERVAL_S`, from a
``SIGALRM`` interval timer, for as long as the process lives.
``probe time / PROBE_REF_S`` is the host's slowdown at that instant;
:meth:`HostSpeed.work_seconds` integrates ``dt / slowdown`` over a timed
section, which gives the seconds the section would have taken on the reference
host when it is quiet.  The probes take about 1 % of the time; they are left
in the sections they interrupt.

Everything the benchmark gates is reported in those reference seconds; the raw
seconds and the slowdown are kept beside them in the records.
"""

from __future__ import annotations

import bisect
import signal
import time

__all__ = ["HostSpeed", "INTERVAL_S", "PROBE_REF_S"]

#: Seconds between probes.
INTERVAL_S = 0.1
#: What one probe takes on the reference host — the 2-vCPU 2.1 GHz Xeon
#: guest, Python 3.11, that ``perf/baseline`` was recorded on — when it
#: interrupts a single-threaded workload and no neighbour is busy.
PROBE_REF_S = 0.00095

_CELLS = [[i, 3 * i, None] for i in range(20_000)]
_INDEX = {(7919 * i) % 20_011: cell for i, cell in enumerate(_CELLS)}
_KEYS = list(_INDEX)
_STRIDE = 10_000


def probe(offset: int) -> float:
    """Seconds one probe takes: :data:`_STRIDE` lookups starting at *offset*
    (the caller moves it on, so that no two probes in a row find the same
    cells in cache)."""
    start = time.perf_counter()
    total = 0
    index = _INDEX
    for key in _KEYS[offset : offset + _STRIDE]:
        cell = index[key]
        total += cell[0] * 7 % 5 + cell[1]
    return time.perf_counter() - start


class HostSpeed:
    """The probe's readings over the life of the process."""

    def __init__(self) -> None:
        self.times: list[float] = []  # perf_counter at the middle of each probe
        self.slowdowns: list[float] = []  # probe seconds / PROBE_REF_S
        self._offset = 0

    def sample(self, *_signal_args) -> None:
        seconds = probe(self._offset)
        self._offset = (self._offset + _STRIDE) % (len(_KEYS) - _STRIDE)
        self.times.append(time.perf_counter() - seconds / 2)
        self.slowdowns.append(seconds / PROBE_REF_S)

    def start(self) -> None:
        """Probe now, then every :data:`INTERVAL_S` until :meth:`stop`."""
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def slowdown_at(self, t: float) -> float:
        """The slowdown at time *t*: the mean of the probes on either side
        (1.0, which leaves raw seconds, if this object never sampled)."""
        k = bisect.bisect_right(self.times, t)
        around = self.slowdowns[max(0, k - 1) : k + 1]
        return sum(around) / len(around) if around else 1.0

    def work_seconds(self, start: float, end: float) -> float:
        """``[start, end]`` in seconds of the reference host: the integral of
        ``dt / slowdown``, the slowdown taken as constant between two probes."""
        first = bisect.bisect_right(self.times, start)
        last = bisect.bisect_left(self.times, end)
        edges = [start, *self.times[first:last], end]
        return sum(
            (b - a) / self.slowdown_at((a + b) / 2) for a, b in zip(edges, edges[1:])
        )
