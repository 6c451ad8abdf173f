"""``serve_zipf`` / ``serve_warm`` (HTTP, server child) and ``service_burst``
(in-process ``CompileService``): many tenants sharing one compiler."""

from __future__ import annotations

import asyncio
import hashlib
import shutil
import time
from pathlib import Path

import repro.pipeline.compile as compile_mod
from repro.pipeline.store import STORE_DIRNAME, ArtifactStore
from repro.serve.protocol import CompileRequest
from repro.serve.service import CompileService, ServiceConfig
from repro.util.rng import derive_seed, make_rng

from perf.client import ServerProcess, closed_loop
from perf.harness import OUT, ROOT, Repeat, Run, TempDirs
from perf.stats import percentile

__all__ = ["ServeLoad", "ServiceBurst", "universe", "zipf_schedule", "parity_problems"]

KERNELS = ("mpeg", "sor", "compress", "gsr", "laplace", "lowpass", "swim", "wavelet")
TENANTS = ("alpha", "beta", "gamma")


def universe(n_kernels: int = 8, n_seeds: int = 4) -> list[dict]:
    """The serve job universe U64: 8 kernels x page size {2,4} x mapper seed
    {0..3} on the 4x4 grid — 64 distinct artifacts, 10-650 ms each to compile.
    Mapper seeds are fixed, not drawn from ``--seed``: which seeds are in the
    universe moves its total compile time by ~15 %."""
    return [
        {"kernel": kernel, "size": 4, "page_size": ps, "seed": seed}
        for kernel in KERNELS[:n_kernels]
        for ps in (2, 4)
        for seed in range(n_seeds)
    ]


def zipf_schedule(jobs: list[dict], n_requests: int, seed: int) -> list[dict]:
    """Request payloads with Zipf(1) popularity over *jobs* (rank = position):
    job i is requested ``~ n_requests / (i+1)`` times, at least once, so every
    seed asks for the same multiset — the same compiles, the same hits — and
    the seed decides the order and the priorities (0-2).  Tenants go
    round-robin as in ``repro.serve.loadgen.build_schedule``."""
    rng = make_rng(seed)
    weights = [1.0 / (rank + 1) for rank in range(len(jobs))]
    counts = [max(1, round(n_requests * w / sum(weights))) for w in weights]
    counts[0] += n_requests - sum(counts)
    picks = rng.permutation([i for i, count in enumerate(counts) for _ in range(count)])
    priorities = rng.integers(0, 3, size=n_requests)
    return [
        dict(
            jobs[int(picks[i])],
            tenant=TENANTS[i % len(TENANTS)],
            priority=int(priorities[i]),
            request_id=f"{TENANTS[i % len(TENANTS)]}-{i}",
        )
        for i in range(n_requests)
    ]


def _job(payload: dict) -> compile_mod.CompileJob:
    return compile_mod.CompileJob(
        payload["kernel"], payload["size"], payload["page_size"], seed=payload["seed"]
    )


def _distinct_jobs(payloads) -> list[compile_mod.CompileJob]:
    return sorted(
        {_job(p) for p in payloads}, key=lambda j: (j.kernel, j.page_size, j.seed)
    )


def parity_problems(bodies: dict[str, bytes], reference: Path) -> list[str]:
    """Served bytes per digest against the offline store under *reference*."""
    problems = []
    for digest, body in sorted(bodies.items()):
        path = reference / digest[:2] / f"{digest}.json"
        if not path.exists():
            problems.append(f"served digest {digest[:12]} was never compiled offline")
        elif path.read_bytes() != body:
            problems.append(f"served bytes of {digest[:12]} differ from offline compile_many")
    return problems


def _offline_store(tmp: TempDirs, jobs) -> Path:
    """``compile_many`` of *jobs* into a fresh store."""
    root = tmp.tempdir("perf-offline-") / STORE_DIRNAME
    compile_mod.compile_many(jobs, store=ArtifactStore(root))
    return root


def _reference_store(jobs) -> Path:
    """The offline ``compile_many`` bytes every served response must equal.

    Kept in ``perf/out/reference/<digest of the program's source>`` between
    runs — ``compile_many`` compiles only what the store lacks — because
    compiling the 64 references afresh after every run would take as long as
    the run.  A changed source file starts a new store."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    root = OUT / "reference" / digest.hexdigest()[:16] / STORE_DIRNAME
    compile_mod.compile_many(jobs, store=ArtifactStore(root))
    return root


def _pct(values: list[float], q: float) -> float:
    """Percentile of *values*, 0 when nothing of that kind was observed."""
    return percentile(values, q) if values else 0.0


def _counts_problems(stats: dict, requests: int, expect_compiles: int) -> list[str]:
    problems = []
    if stats["compiles"] != expect_compiles:
        problems.append(f"{stats['compiles']} compiles, expected {expect_compiles}")
    answered = stats["hits"] + stats["compiles"] + stats["coalesced"]
    if answered != requests:
        problems.append(
            f"hits+compiles+coalesced = {answered}, but {requests} requests were sent"
        )
    return problems


def _serve_facts(stats: dict, distinct: int) -> dict:
    requests = max(1, stats["requests"])
    facts = {
        f"serve.{k}": stats[k]
        for k in ("requests", "hits", "compiles", "coalesced", "errors", "cancelled")
    }
    facts.update(
        {
            "serve.dispatched": stats["scheduler"]["dispatched"],
            "serve.coalesce_ratio": stats["coalesced"] / requests,
            "serve.hit_ratio": stats["hits"] / requests,
            "serve.compiles_per_distinct": stats["compiles"] / max(1, distinct),
            "pipeline.store_hit_ratio": stats["store"]["hits"]
            / max(1, stats["store"]["hits"] + stats["store"]["misses"]),
        }
    )
    return facts


class ServeLoad(TempDirs):
    """A closed loop of Zipf requests at a fresh server child per repeat."""

    warmup = False  # every repeat boots its own server; zipf is cold on purpose

    def __init__(self, name: str, *, requests: int, prefilled: bool, max_repeats: int):
        super().__init__()
        self.name = name
        self.requests = requests
        self.prefilled = prefilled
        self.max_repeats = max_repeats

    def prepare(self, run: Run) -> None:
        self.jobs = run.size(universe(), universe(2, 1))
        self.n_requests = run.size(self.requests, 40)
        self.reference = None
        if self.prefilled:
            self.reference = _offline_store(self, [_job(p) for p in self.jobs])

    def repeat(self, run: Run, index: int) -> Repeat:
        began = time.perf_counter()
        payloads = zipf_schedule(
            self.jobs, self.n_requests, derive_seed(run.seed, self.name, index)
        )
        store = self.tempdir("perf-serve-") / STORE_DIRNAME
        if self.prefilled:
            shutil.copytree(self.reference, store)
        trace_path = None
        if run.trace:
            OUT.mkdir(exist_ok=True)
            trace_path = OUT / f"trace-{self.name}-server{index}.jsonl"
        with ServerProcess(store, trace_path) as server:
            start = time.perf_counter()
            samples = closed_loop(server.port, payloads, run.tracer)
            end = time.perf_counter()
            stats = server.stats()
        run.child_rss_kib = max(run.child_rss_kib, server.peak_rss_kib)
        if trace_path is not None:
            run.child_traces.append(trace_path)
        return Repeat(
            setup_s=start - began, start=start, end=end,
            attempted=len(samples), failed=sum(not s.ok for s in samples),
            data={
                "samples": samples, "stats": stats, "payloads": payloads,
                "boot_s": server.boot_s,
            },
        )

    def check(self, run: Run, repeats) -> list[str]:
        problems = []
        requested = _distinct_jobs(p for r in repeats for p in r.data["payloads"])
        reference = self.reference or _reference_store(requested)
        for i, r in enumerate(repeats):
            bodies: dict[str, bytes] = {}
            for s in r.data["samples"]:
                if not s.ok:
                    problems.append(f"repeat {i}: request {s.request_id} failed")
                elif bodies.setdefault(s.digest, s.body) != s.body:
                    problems.append(f"repeat {i}: two bodies served for {s.digest[:12]}")
            problems += parity_problems(bodies, reference)
            distinct = len(_distinct_jobs(r.data["payloads"]))
            problems += _counts_problems(
                r.data["stats"], len(r.data["samples"]),
                0 if self.prefilled else distinct,
            )
        return problems

    def _latencies(self, run: Run, repeats, source=None) -> list[float]:
        """Client-side latencies in ms of the reference host (a failed
        request keeps its FAILED_MS)."""
        return [
            s.latency_ms / run.host.slowdown_at((s.start + s.end) / 2) if s.ok else s.latency_ms
            for r in repeats
            for s in r.data["samples"]
            if source is None or s.source == source
        ]

    def scoped(self, run: Run, repeats) -> dict:
        everything = self._latencies(run, repeats)
        scoped = {
            "latency_p50_ms": percentile(everything, 0.50),
            "latency_p99_ms": percentile(everything, 0.99),
        }
        if not self.prefilled:
            scoped["miss_latency_p50_ms"] = _pct(
                self._latencies(run, repeats, "compiled"), 0.50
            )
        return scoped

    def facts(self, run: Run, repeats, trace) -> dict:
        last = repeats[-1]
        facts = _serve_facts(last.data["stats"], len(_distinct_jobs(last.data["payloads"])))
        everything = self._latencies(run, repeats)
        hits = self._latencies(run, repeats, "hit")
        coalesced = self._latencies(run, repeats, "coalesced")
        submit_ms = trace.request_ms("serve.submit")
        transport = [
            s.latency_ms - submit_ms[s.request_id]
            for r in repeats
            for s in r.data["samples"]
            if s.ok and s.request_id in submit_ms
        ]
        facts.update(
            {
                "serve.boot_s": last.data["boot_s"],
                "serve.transport_p50_ms": _pct(transport, 0.50),
                "pipeline.artifact_bytes": sum(
                    len(s.body) for s in last.data["samples"] if s.ok
                ),
                "loadgen.throughput_rps": len(last.data["samples"]) / last.wall_s,
                "loadgen.latency_p95_ms": percentile(everything, 0.95),
                "loadgen.latency_max_ms": max(everything),
                "loadgen.hit_latency_p50_ms": _pct(hits, 0.50),
                "loadgen.hit_latency_p99_ms": _pct(hits, 0.99),
                "loadgen.coalesced_latency_p50_ms": _pct(coalesced, 0.50),
            }
        )
        return facts


class ServiceBurst(TempDirs):
    """600 concurrent ``CompileService.submit`` calls from one event loop,
    no sockets: the queueing workload."""

    warmup = False  # each repeat is a fresh service on an empty store
    max_repeats = 5

    name = "service_burst"

    def prepare(self, run: Run) -> None:
        self.jobs = run.size(universe()[:32], universe(2, 1))
        self.n_requests = run.size(600, 40)

    def repeat(self, run: Run, index: int) -> Repeat:
        began = time.perf_counter()
        payloads = zipf_schedule(
            self.jobs, self.n_requests, derive_seed(run.seed, self.name, index)
        )
        requests = [CompileRequest.from_dict(p) for p in payloads]
        config = ServiceConfig(
            store_root=str(self.tempdir("perf-burst-") / STORE_DIRNAME),
            workers=1, slots=2, tenant_weights={"alpha": 2},
        )

        async def one(service, request):
            started = time.perf_counter()
            result = await service.submit(request)
            return (time.perf_counter() - started) * 1e3, result

        async def burst():
            async with CompileService(config) as service:
                start = time.perf_counter()
                answers = await asyncio.gather(*(one(service, r) for r in requests))
                end = time.perf_counter()
                return start, end, answers, service.stats()

        start, end, answers, stats = asyncio.run(burst())
        return Repeat(
            setup_s=start - began, start=start, end=end,
            attempted=len(answers), failed=sum(not res.ok for _ms, res in answers),
            data={"answers": answers, "stats": stats, "payloads": payloads},
        )

    def check(self, run: Run, repeats) -> list[str]:
        problems = []
        requested = _distinct_jobs(p for r in repeats for p in r.data["payloads"])
        reference = _reference_store(requested)
        for i, r in enumerate(repeats):
            bodies: dict[str, bytes] = {}
            for _ms, res in r.data["answers"]:
                if not res.ok:
                    problems.append(f"repeat {i}: {res.request_id}: {res.error} {res.message}")
                elif bodies.setdefault(res.digest, res.body) != res.body:
                    problems.append(f"repeat {i}: two bodies served for {res.digest[:12]}")
            problems += parity_problems(bodies, reference)
            problems += _counts_problems(
                r.data["stats"], len(r.data["answers"]),
                len(_distinct_jobs(r.data["payloads"])),
            )
        return problems

    def scoped(self, run: Run, repeats) -> dict:
        return {}

    def facts(self, run: Run, repeats, trace) -> dict:
        last = repeats[-1]
        facts = _serve_facts(last.data["stats"], len(_distinct_jobs(last.data["payloads"])))
        facts["pipeline.artifact_bytes"] = sum(
            len(res.body) for _ms, res in last.data["answers"] if res.ok
        )
        return facts
