"""Negative tests: each correctness check must fail on a broken output."""

from __future__ import annotations

import http.server
import shutil
import socket
import threading
import time

import pytest

from perf import harness, wl_compile, wl_serve
from perf.client import closed_loop
from perf.harness import ROOT, Repeat, Run
from perf.stats import FAILED_MS, percentile
from perf.wl_fold import FoldExec


def _run(workload: str) -> Run:
    return Run(
        workload=workload, seed=0, seconds=0.1, trace=False, check_sizes=True,
        process_start=time.perf_counter(),
    )


def _committed_copy(tmp_path):
    """The committed sor/4x4/ps4 artifact copied into a store under tmp_path."""
    from repro.pipeline import ArtifactStore, CompileJob, job_key
    from repro.pipeline.store import STORE_DIRNAME

    committed = ArtifactStore(ROOT / STORE_DIRNAME)
    root = tmp_path / STORE_DIRNAME
    source = committed.path_for(job_key(CompileJob("sor", 4, 4)))
    path = root / source.relative_to(committed.root)
    path.parent.mkdir(parents=True)
    shutil.copyfile(source, path)
    return path, root, committed.root


def test_byte_flipped_artifact_fails_parity_and_audit(tmp_path):
    path, root, committed = _committed_copy(tmp_path)
    assert wl_compile.audit_problems(path, root) == []
    assert wl_compile.parity_problems(path, root, committed) == []
    raw = bytearray(path.read_bytes())
    at = raw.index(b'"ii_paged":') + len(b'"ii_paged":')
    raw[at] = ord("9") if raw[at] != ord("9") else ord("8")
    path.write_bytes(bytes(raw))
    assert wl_compile.audit_problems(path, root)
    assert wl_compile.parity_problems(path, root, committed)
    digest = path.stem
    assert wl_serve.parity_problems({digest: path.read_bytes()}, committed)
    assert wl_serve.parity_problems({"0" * 64: b"{}"}, committed)


def test_tampered_memory_snapshot_fails_fold_check():
    run = _run("fold_exec")
    fold = FoldExec()
    try:
        fold.prepare(run)
        repeat = fold.repeat(run, 0)
        assert fold.check(run, [repeat]) == []
        victim = fold.folds[3]
        name = sorted(victim["item"]["expected"])[0]
        victim["snapshot"][name][0] ^= 1
        problems = fold.check(run, [repeat])
        assert len(problems) == 1 and victim["fold"] in problems[0]
    finally:
        fold.cleanup()


class _Flaky(http.server.BaseHTTPRequestHandler):
    """Answers 200 to even request indices and 500 to odd ones."""

    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server's naming
        length = int(self.headers["Content-Length"])
        ok = b'"even"' in self.rfile.read(length)
        body = b"{}"
        self.send_response(200 if ok else 500)
        self.send_header("Content-Length", str(len(body)))
        self.send_header("X-Repro-Source", "hit")
        self.send_header("X-Repro-Digest", "d" * 64)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_500_and_refused_count_as_failed_beyond_every_percentile():
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _Flaky)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        payloads = [
            {"request_id": f"r{i}", "kind": "even" if i % 2 == 0 else "odd"}
            for i in range(20)
        ]
        samples = closed_loop(server.server_address[1], payloads)
    finally:
        server.shutdown()
        thread.join(timeout=10)
        server.server_close()
    assert not thread.is_alive()
    assert [s.ok for s in samples] == [i % 2 == 0 for i in range(20)]
    latencies = [s.latency_ms for s in samples]
    assert percentile(latencies, 0.50) < FAILED_MS  # ten real samples come first
    assert percentile(latencies, 0.51) == FAILED_MS
    assert percentile(latencies, 0.99) == FAILED_MS

    with socket.socket() as probe:  # a port nobody listens on
        probe.bind(("127.0.0.1", 0))
        closed_port = probe.getsockname()[1]
    refused = closed_loop(closed_port, payloads[:4])
    assert all(not s.ok and s.latency_ms == FAILED_MS for s in refused)


class _HalfFailing:
    """A stub workload: two operations per repeat, one of them fails."""

    name = "fold_exec"
    warmup = False
    max_repeats = 1

    def prepare(self, run):
        pass

    def repeat(self, run, index):
        start = time.perf_counter()
        return Repeat(
            setup_s=0.0, start=start, end=start + 0.01, attempted=2, failed=1,
        )

    def check(self, run, repeats):
        return [f"{r.failed} operation(s) failed" for r in repeats if r.failed]

    def scoped(self, run, repeats):
        return {}

    def cleanup(self):
        pass


def test_failures_reach_failed_share_and_the_exit_code(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "OUT", tmp_path)
    record, code = harness.execute(_HalfFailing(), _run("fold_exec"))
    assert code == 1 and not record["result"]["correct"]
    assert record["result"]["attempted"] == 2 and record["result"]["failed"] == 1
    assert record["scoped"]["failed_share"] == pytest.approx(0.5)
