"""The benchmark's own load generator: a server child and a closed loop.

Closed loop: each of the (at most two) connections sends its next request only
after the previous reply, so a slower server receives less load.  A refused
connection, a transport error or a non-200 reply is a failed sample — it
counts in ``failed`` and, at :data:`~perf.stats.FAILED_MS`, sorts after every
latency percentile.
"""

from __future__ import annotations

import dataclasses
import http.client
import json
import os
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

from perf.harness import ROOT
from perf.stats import FAILED_MS

__all__ = ["Sample", "ServerProcess", "closed_loop", "CONNECTIONS"]

#: The host has two cores: one process, at most two connections.
CONNECTIONS = 2
BOOT_TIMEOUT_S = 30.0
REQUEST_TIMEOUT_S = 60.0


@dataclasses.dataclass
class Sample:
    """One request as the client saw it."""

    request_id: str
    latency_ms: float
    ok: bool
    source: str = ""  # X-Repro-Source: hit | compiled | coalesced
    digest: str = ""
    body: bytes = b""
    start: float = 0.0
    end: float = 0.0


def _peak_rss_kib(pid: int) -> int:
    """VmHWM of a live process.  Not ``getrusage(RUSAGE_CHILDREN)``: a child's
    ``ru_maxrss`` starts from the RSS this process had when it forked it."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


class ServerProcess:
    """``python -m repro.serve`` (or the traced ``perf/serve_child.py``) as a
    child that is always reaped: on exit, on exception, on Ctrl-C."""

    def __init__(self, store: Path, trace_path: Path | None = None) -> None:
        entry = (
            [str(Path(__file__).with_name("serve_child.py")), "--trace-out", str(trace_path)]
            if trace_path is not None
            else ["-m", "repro.serve"]
        )
        self.argv = [
            sys.executable, "-u", *entry,
            "--workers", "1", "--slots", "2", "--port", "0", "--store", str(store),
        ]
        self.proc: subprocess.Popen | None = None
        self.port = 0
        self.boot_s = 0.0

    def __enter__(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self.argv, stdout=subprocess.PIPE, env=env
        )
        try:
            self.port = self._read_port(started + BOOT_TIMEOUT_S)
            self._await_healthz(started + BOOT_TIMEOUT_S)
        except BaseException:
            self._reap()
            raise
        self.boot_s = time.perf_counter() - started
        return self

    def _read_port(self, deadline: float) -> int:
        """The OS-assigned port, parsed from the child's unbuffered stdout."""
        fd = self.proc.stdout.fileno()
        pending = b""
        while b"\n" not in pending:
            left = deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise TimeoutError("server child printed no address in time")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise RuntimeError(
                    f"server child exited with code {self.proc.wait()} before listening"
                )
            pending += chunk
        first = pending.split(b"\n", 1)[0].decode()
        return int(first.rsplit(":", 1)[1])

    def _await_healthz(self, deadline: float) -> None:
        while True:
            try:
                status, _headers, _body = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("server child never answered /healthz")
            time.sleep(0.01)

    def get(self, path: str) -> tuple[int, dict, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            conn.request("GET", path)
            resp = conn.getresponse()
            return resp.status, dict(resp.getheaders()), resp.read()
        finally:
            conn.close()

    def stats(self) -> dict:
        return json.loads(self.get("/stats")[2])

    def _reap(self) -> int:
        """Stop the child and wait for it; returns its peak RSS in KiB."""
        proc, self.proc = self.proc, None
        if proc is None:
            return 0
        peak = 0
        try:
            if proc.poll() is None:
                peak = _peak_rss_kib(proc.pid)
                proc.terminate()
            try:
                proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        finally:
            proc.stdout.close()
        return peak

    def __exit__(self, *exc) -> None:
        self.peak_rss_kib = self._reap()


def closed_loop(port: int, payloads: list[dict], tracer=None) -> list[Sample]:
    """Send *payloads* over :data:`CONNECTIONS` keep-alive connections
    (request i on connection ``i % CONNECTIONS``, each in order)."""
    samples: list[Sample | None] = [None] * len(payloads)

    def connection(first: int) -> None:
        conn = None
        for index in range(first, len(payloads), CONNECTIONS):
            payload = payloads[index]
            body = json.dumps(payload, sort_keys=True).encode()
            sample = Sample(payload["request_id"], FAILED_MS, ok=False)
            sample.start = time.perf_counter()
            try:
                if conn is None:
                    conn = http.client.HTTPConnection(
                        "127.0.0.1", port, timeout=REQUEST_TIMEOUT_S
                    )
                conn.request(
                    "POST", "/compile", body, {"Content-Type": "application/json"}
                )
                resp = conn.getresponse()
                sample.body = resp.read()
                sample.end = time.perf_counter()
                if resp.status == 200:
                    sample.ok = True
                    sample.latency_ms = (sample.end - sample.start) * 1e3
                    sample.source = resp.getheader("X-Repro-Source", "")
                    sample.digest = resp.getheader("X-Repro-Digest", "")
            except (OSError, http.client.HTTPException):
                sample.end = time.perf_counter()
                if conn is not None:
                    conn.close()
                conn = None  # reconnect for the next request
            samples[index] = sample
            if tracer is not None:
                tracer.record(
                    "loadgen.request", sample.start, sample.end, req=sample.request_id
                )
        if conn is not None:
            conn.close()

    threads = [
        threading.Thread(target=connection, args=(i,)) for i in range(CONNECTIONS)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return samples
