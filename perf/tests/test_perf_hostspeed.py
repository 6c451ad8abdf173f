"""The host-speed sampler: its arithmetic, and that it ticks while work runs."""

from __future__ import annotations

import signal
import threading
import time

import pytest

from perf.hostspeed import INTERVAL_S, HostSpeed


def _series(times, slowdowns) -> HostSpeed:
    host = HostSpeed()
    host.times, host.slowdowns = list(times), list(slowdowns)
    return host


def test_never_sampled_leaves_raw_seconds():
    host = HostSpeed()
    assert host.work_seconds(3.0, 5.5) == pytest.approx(2.5)
    assert host.slowdown_at(4.0) == 1.0


def test_work_seconds_integrates_between_probes():
    # slowdown 1 until t=1, 2 from t=2 on, their mean in between
    host = _series([0.0, 1.0, 2.0, 3.0], [1.0, 1.0, 2.0, 2.0])
    assert host.work_seconds(0.0, 1.0) == pytest.approx(1.0)
    assert host.work_seconds(2.0, 3.0) == pytest.approx(0.5)
    assert host.work_seconds(0.5, 2.5) == pytest.approx(0.5 / 1.0 + 1.0 / 1.5 + 0.5 / 2.0)
    # outside the probes the nearest one counts; an empty section is 0 s
    assert host.work_seconds(5.0, 7.0) == pytest.approx(1.0)
    assert host.work_seconds(-2.0, -1.0) == pytest.approx(1.0)
    assert host.work_seconds(1.5, 1.5) == 0.0


def test_a_uniformly_slow_host_cancels_out():
    """Twice the time at twice the slowdown is the same work."""
    quiet = _series([0.0, 1.0, 2.0], [1.0, 1.0, 1.0])
    slow = _series([0.0, 2.0, 4.0], [2.0, 2.0, 2.0])
    assert slow.work_seconds(0.0, 4.0) == pytest.approx(quiet.work_seconds(0.0, 2.0))


def test_ticks_while_the_main_thread_computes_sleeps_and_joins():
    host = HostSpeed()
    previous = signal.getsignal(signal.SIGALRM)
    host.start()
    try:
        deadline = time.perf_counter() + 3 * INTERVAL_S
        while time.perf_counter() < deadline:  # computing
            sum(range(1000))
        time.sleep(3 * INTERVAL_S)  # sleeping
        worker = threading.Thread(target=time.sleep, args=(3 * INTERVAL_S,))
        worker.start()
        worker.join(timeout=10)  # blocked on a lock, as the closed loop's client is
        assert not worker.is_alive()
    finally:
        host.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL == previous
    # first and last probe, and about three per phase in between
    assert 8 <= len(host.times) <= 13
    assert host.times == sorted(host.times)
    gaps = [b - a for a, b in zip(host.times, host.times[1:])]
    assert max(gaps) < 2.5 * INTERVAL_S  # no phase starved the sampler
    assert all(s > 0 for s in host.slowdowns)
