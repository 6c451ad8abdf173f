"""Serve bench: load-generate against the compile service, measure SLOs.

``python -m repro.bench serve`` starts an in-process
:class:`~repro.serve.server.ServeServer` on an ephemeral localhost port
with a fresh temporary artifact store (every run is cold — the coalesce
and hit rates measure the serving layer, not a pre-warmed disk), fires a
seeded Zipf-skewed request schedule at it from concurrent keep-alive
connections, and reports:

* throughput (requests/s) and request latency p50/p99/mean/max;
* the **coalesce rate** (duplicate concurrent requests that rode a
  sibling's in-flight compile) and **cache hit rate**;
* the server-side singleflight/scheduler/store counters.

Every run also proves two properties the service is built around: the
number of mapper invocations equals the number of *distinct* jobs (N
identical concurrent requests → one compile), and every served payload is
byte-identical to the offline :func:`~repro.pipeline.compile.compile_many`
output for the same job.  ``--smoke`` is the CI variant: tiny schedule,
hard assertions.

The run prints its report and records nothing; serve numbers that back a
performance claim are measured by ``perf/`` (``serve_zipf``,
``serve_warm``, ``service_burst``).
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

from repro.pipeline.compile import CompileJob, compile_many, job_key
from repro.pipeline.store import ArtifactStore
from repro.serve.loadgen import LoadReport, build_schedule, run_load
from repro.serve.server import ServeServer
from repro.serve.service import ServiceConfig

__all__ = [
    "default_jobs",
    "run_serve_bench",
    "verify_parity",
    "render_report",
    "main",
]

#: Default tenant mix: three tenants, one with double weight, so the
#: weighted round-robin actually has something to arbitrate.
DEFAULT_TENANTS = ("alpha", "beta", "gamma")
DEFAULT_WEIGHTS = {"alpha": 2}


def default_jobs(
    kernels: tuple[str, ...] = ("mpeg", "sor", "compress", "gsr"),
    page_sizes: tuple[int, ...] = (2, 4),
    *,
    size: int = 4,
    seed: int = 0,
) -> list[dict]:
    """The bench's distinct-job universe: fast suite kernels on the 4x4
    grid (the duplication-heavy schedule is drawn from these)."""
    return [
        {"kernel": kernel, "size": size, "page_size": ps, "seed": seed}
        for kernel in kernels
        for ps in page_sizes
    ]


def _job_of(payload: dict) -> CompileJob:
    return CompileJob(
        kernel=payload["kernel"],
        size=payload.get("size", 4),
        page_size=payload.get("page_size", 4),
        prefer=payload.get("prefer", "square"),
        seed=payload.get("seed", 0),
        arch=payload.get("arch"),
        backend=payload.get("backend", "flat"),
    )


def verify_parity(report: LoadReport, jobs: list[dict]) -> int:
    """Recompile every distinct job offline (serial ``compile_many`` into
    a fresh store) and assert each served payload matches byte-for-byte.
    Returns the number of artifacts compared."""
    compile_jobs = [_job_of(p) for p in jobs]
    compared = 0
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp))
        compile_many(compile_jobs, store=store)
        for cj in compile_jobs:
            key = job_key(cj)
            served = report.bodies.get(key.digest)
            if served is None:
                continue  # schedule never drew this job
            offline = store.path_for(key).read_bytes()
            if served != offline:
                raise AssertionError(
                    f"served bytes diverge from offline compile_many for "
                    f"{cj.kernel}/ps{cj.page_size} ({key.digest[:12]})"
                )
            compared += 1
    return compared


async def _bench_async(
    *,
    jobs: list[dict],
    n_requests: int,
    clients: int,
    workers: int,
    slots: int,
    seed: int,
) -> tuple[LoadReport, dict]:
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            store_root=tmp,
            workers=workers,
            slots=slots,
            tenant_weights=dict(DEFAULT_WEIGHTS),
        )
        async with ServeServer(config) as server:
            schedule = build_schedule(
                jobs,
                n_requests=n_requests,
                tenants=list(DEFAULT_TENANTS),
                seed=seed,
            )
            report = await run_load(
                server.host, server.port, schedule, clients=clients
            )
            stats = server.service.stats()
    return report, stats


def run_serve_bench(
    *,
    jobs: list[dict] | None = None,
    n_requests: int = 80,
    clients: int = 8,
    workers: int = 2,
    slots: int = 2,
    seed: int = 0,
) -> tuple[LoadReport, dict]:
    """One cold serve-bench run; returns (client report, server stats)."""
    jobs = jobs if jobs is not None else default_jobs()
    return asyncio.run(
        _bench_async(
            jobs=jobs,
            n_requests=n_requests,
            clients=clients,
            workers=workers,
            slots=slots,
            seed=seed,
        )
    )


def render_report(report: LoadReport, stats: dict, parity: int) -> str:
    rec = report.as_record()
    lat = rec["latency_ms"]
    lines = [
        f"serve bench: {rec['requests']} requests, {rec['ok']} ok, "
        f"{rec['errors']} error(s) in {rec['elapsed_seconds']:.2f}s "
        f"({rec['throughput_rps']:.1f} req/s)",
        f"latency ms: p50 {lat['p50']:.1f}  p99 {lat['p99']:.1f}  "
        f"mean {lat['mean']:.1f}  max {lat['max']:.1f}",
        f"sources: {rec['by_source']}",
        f"coalesce rate {stats['coalesce_rate']:.0%} "
        f"({stats['coalesced']} coalesced), cache hit rate "
        f"{stats['cache_hit_rate']:.0%} ({stats['hits']} hits), "
        f"{stats['compiles']} compile(s)",
        f"store: {stats['store']}",
        f"byte parity vs offline compile_many: {parity} artifact(s) identical",
    ]
    return "\n".join(lines)


def main(args) -> int:
    """``python -m repro.bench serve`` body (argparse namespace)."""
    workers = getattr(args, "workers", 1) or 1
    if args.smoke:
        # CI variant: two distinct jobs, duplication-heavy schedule, hard
        # assertions on coalescing, single-compile dedup and byte parity.
        jobs = default_jobs(kernels=("mpeg", "sor"), page_sizes=(2,))
        report, stats = run_serve_bench(
            jobs=jobs,
            n_requests=16,
            clients=6,
            workers=max(2, workers),
            slots=args.slots,
            seed=args.seed,
        )
        parity = verify_parity(report, jobs)
        print(render_report(report, stats, parity))
        assert report.errors == 0, f"{report.errors} request(s) failed"
        assert stats["compiles"] == len(jobs), (
            f"expected exactly {len(jobs)} mapper invocations "
            f"(one per distinct job), got {stats['compiles']}"
        )
        assert stats["coalesced"] > 0, "no concurrent duplicates coalesced"
        assert parity == len(jobs), "not every distinct job verified byte parity"
        print(
            f"[smoke] ok: {stats['compiles']} compiles served "
            f"{report.requests} requests, {stats['coalesced']} coalesced, "
            f"{parity} byte-identical"
        )
        return 0
    report, stats = run_serve_bench(
        n_requests=args.requests,
        clients=args.clients,
        workers=workers,
        slots=args.slots,
        seed=args.seed,
    )
    parity = verify_parity(report, default_jobs())
    print(render_report(report, stats, parity))
    if report.errors:
        print(f"[fail] {report.errors} request(s) errored")
        return 1
    return 0
