"""Tests for the compile service: protocol validation, fair scheduling,
singleflight coalescing, cancellation, shutdown, and byte parity between
served responses and offline ``compile_many`` output."""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.pipeline import (
    ArtifactStore,
    CompileJob,
    compile_job,
    compile_many,
    job_key,
)
from repro.serve.loadgen import ServeClient
from repro.serve.protocol import (
    MAX_HEAD_BYTES,
    MAX_HEADER_LINES,
    CompileRequest,
    ProtocolError,
)
from repro.serve.scheduler import FairScheduler, RequestCancelled
from repro.serve.server import ServeServer
from repro.serve.service import CompileService, ServiceConfig


# ------------------------------------------------------------------- protocol


class TestProtocol:
    def test_minimal_request(self):
        req = CompileRequest.from_dict({"kernel": "sor"})
        assert req.size == 4 and req.page_size == 4
        assert req.tenant == "default" and req.priority == 0
        whole = CompileRequest.from_dict({"kernel": "sor", "page_size": 16})
        assert whole.page_size == 16  # one page of the whole 4x4 grid
        job = req.to_job()
        assert job == CompileJob("sor", 4, 4)

    def test_full_request_roundtrip(self):
        req = CompileRequest.from_dict(
            {
                "kernel": "mpeg",
                "size": 6,
                "page_size": 2,
                "seed": 3,
                "backend": "hier",
                "tenant": "alpha",
                "priority": 5,
                "request_id": "r-1",
            }
        )
        job = req.to_job()
        assert job.kernel == "mpeg" and job.backend == "hier"
        assert job.size == 6 and job.page_size == 2 and job.seed == 3

    def test_unknown_field_rejected(self):
        """A typo, or ``prefer``: the page shape follows from the page size
        alone."""
        for field in ("kernal", "prefer"):
            with pytest.raises(ProtocolError, match="unknown request field"):
                CompileRequest.from_dict({"kernel": "sor", field: "column"})

    def test_missing_kernel_rejected(self):
        with pytest.raises(ProtocolError, match="kernel"):
            CompileRequest.from_dict({"size": 4})

    @pytest.mark.parametrize(
        "patch",
        [
            {"size": "4"},
            {"size": True},
            {"page_size": 0},
            {"priority": 1.5},
            {"prefer": "diagonal"},
            {"backend": "quantum"},
            {"backend": "exact"},
            {"tenant": ""},
            {"request_id": 7},
            {"tenant": "a b"},
            {"tenant": "x" * 129},
            {"request_id": ""},
            {"request_id": "a\r\nX-Evil: 1"},
            {"request_id": "\u00e9-1"},
            {"size": 1},
            {"size": 17},
            {"size": 1024},
            # a page larger than the grid: a 400, not a failed key resolution
            {"page_size": 17},
            {"size": 16, "page_size": 257},
            {"page_size": 10**8},
        ],
    )
    def test_bad_fields_rejected(self, patch):
        with pytest.raises(ProtocolError):
            CompileRequest.from_dict({"kernel": "sor", **patch})

    def test_negative_seed_rejected(self):
        """A negative mapper seed is a 400, not a compile that succeeds or
        fails depending on the kernel."""
        with pytest.raises(ProtocolError, match="'seed' must be >= 0"):
            CompileRequest.from_dict({"kernel": "sor", "seed": -1})

    def test_bad_backend_names_the_valid_set(self):
        with pytest.raises(ProtocolError, match=r"\('flat', 'hier'\)"):
            CompileRequest.from_dict({"kernel": "sor", "backend": "exact"})


# ------------------------------------------------------------------ scheduler


def _run(coro):
    return asyncio.run(coro)


class TestFairScheduler:
    def test_priority_order_within_tenant(self):
        async def body():
            sched = FairScheduler(1)
            order: list[str] = []

            def make(label):
                async def work(token):
                    order.append(label)
                    return label

                return work

            reqs = [
                sched.submit(make("low"), priority=0),
                sched.submit(make("high"), priority=2),
                sched.submit(make("mid"), priority=1),
            ]
            sched.start()
            await asyncio.gather(*(r.future for r in reqs))
            await sched.stop()
            return order

        assert _run(body()) == ["high", "mid", "low"]

    def test_weighted_round_robin(self):
        async def body():
            sched = FairScheduler(1, weights={"a": 2})
            order: list[str] = []

            def make(label):
                async def work(token):
                    order.append(label)

                return work

            for label in ("a1", "a2", "a3"):
                sched.submit(make(label), tenant="a")
            reqs = [sched.submit(make(label), tenant="b") for label in ("b1", "b2", "b3")]
            sched.submit(make("a-last"), tenant="a")
            sched.start()
            await asyncio.sleep(0)
            while sched.queued() or sched.stats()["running"]:
                await asyncio.sleep(0.01)
            await sched.stop()
            return order

        order = _run(body())
        # tenant a (weight 2) gets two dispatches per cycle, b (weight 1) one
        assert order[:3] == ["a1", "a2", "b1"]
        assert set(order) == {"a1", "a2", "a3", "a-last", "b1", "b2", "b3"}

    def test_cancelled_queued_request_never_dispatches(self):
        async def body():
            sched = FairScheduler(1)
            release = asyncio.Event()
            ran: list[str] = []

            async def blocker(token):
                await release.wait()
                ran.append("blocker")

            async def victim_work(token):  # pragma: no cover - must not run
                ran.append("victim")

            blocker_req = sched.submit(blocker)
            victim = sched.submit(victim_work)
            sched.start()
            await asyncio.sleep(0.01)  # blocker occupies the only slot
            victim.token.cancel()
            release.set()
            await blocker_req.future
            with pytest.raises(RequestCancelled):
                await victim.future
            stats = sched.stats()
            await sched.stop()
            return ran, stats

        ran, stats = _run(body())
        assert ran == ["blocker"]
        assert stats["cancelled_queued"] == 1
        assert stats["dispatched"] == 1

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            FairScheduler(0)
        with pytest.raises(ValueError):
            FairScheduler(1, weights={"a": 0})

    @pytest.mark.parametrize("workers", [0, -3])
    def test_rejects_bad_workers(self, workers, capsys):
        """A non-positive worker count is a usage error, not ``workers=1``."""
        from repro.serve.__main__ import main

        with pytest.raises(ValueError, match="workers"):
            ServiceConfig(workers=workers)
        with pytest.raises(SystemExit) as exit_:
            main(["--workers", str(workers)])
        assert exit_.value.code == 2  # argparse usage error
        assert "workers must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("slots", [0, -1])
    def test_rejects_bad_slots(self, slots, capsys):
        """A non-positive slot count is a usage error before the event loop
        starts, not a traceback out of the scheduler."""
        from repro.serve.__main__ import main

        with pytest.raises(ValueError, match="slots"):
            ServiceConfig(slots=slots)
        with pytest.raises(SystemExit) as exit_:
            main(["--slots", str(slots)])
        assert exit_.value.code == 2  # argparse usage error
        assert "slots must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("port", [-1, 70000])
    def test_rejects_out_of_range_port(self, port, capsys):
        """A port outside 0..65535 is a usage error, not an
        ``OverflowError`` out of the socket layer."""
        from repro.serve.__main__ import main

        with pytest.raises(SystemExit) as exit_:
            main(["--port", str(port)])
        assert exit_.value.code == 2  # argparse usage error
        assert f"--port must be in 0..65535, got {port}" in capsys.readouterr().err

    def test_rejects_unusable_store_root(self, tmp_path, capsys, monkeypatch):
        """A store root that is a file, or that cannot be created, is a
        usage error before anything is served (it would fail, or store
        nothing, on every miss); a usable root is created at start-up."""
        from repro.serve import __main__ as entry

        served = []

        async def no_serve(*args):  # binds no socket
            served.append(args)

        monkeypatch.setattr(entry, "_serve", no_serve)
        a_file = tmp_path / "file"
        a_file.write_text("")
        for root in (a_file, a_file / "store"):
            with pytest.raises(SystemExit) as exit_:
                entry.main(["--store", str(root)])
            assert exit_.value.code == 2  # argparse usage error
            assert f"--store {root} is not a usable directory" in capsys.readouterr().err
        assert served == []
        root = tmp_path / "new" / "store"
        assert entry.main(["--store", str(root)]) == 0
        assert root.is_dir() and len(served) == 1

    def test_busy_port_is_one_line(self, tmp_path, capsys, monkeypatch):
        """A port already in use prints one line to stderr and exits 1,
        after the service (started before the bind) is closed again."""
        from repro.serve.__main__ import main

        closed = []
        real_close = CompileService.close

        async def close(self):
            closed.append(self._started)
            await real_close(self)

        monkeypatch.setattr(CompileService, "close", close)
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            port = busy.getsockname()[1]
            code = main(["--port", str(port), "--store", str(tmp_path / "s")])
        assert code == 1
        assert closed == [True]
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(f"repro.serve: cannot listen on 127.0.0.1:{port}: ")
        assert "Traceback" not in captured.err


# -------------------------------------------------------- service end to end


def _request(kernel="sor", **kw):
    return CompileRequest.from_dict({"kernel": kernel, "page_size": 2, **kw})


class TestCompileService:
    def test_identical_concurrent_requests_compile_once(self, tmp_path, monkeypatch):
        """N identical concurrent requests must trigger exactly one mapper
        invocation; everyone gets the identical bytes."""
        import repro.serve.service as service_mod

        calls: list[str] = []
        real = service_mod.compile_job

        def counting(job, **kwargs):
            calls.append(job.kernel)
            return real(job, **kwargs)

        monkeypatch.setattr(service_mod, "compile_job", counting)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    *(service.submit(_request()) for _ in range(6))
                )
                stats = service.stats()
            return results, stats

        results, stats = _run(body())
        assert len(calls) == 1
        assert all(r.ok for r in results)
        assert len({r.body for r in results}) == 1
        assert sorted(r.source for r in results) == ["coalesced"] * 5 + ["compiled"]
        assert stats["compiles"] == 1 and stats["coalesced"] == 5
        assert stats["singleflight"]["flights_started"] == 1

    def test_distinct_requests_all_compile(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    service.submit(_request("sor")),
                    service.submit(_request("mpeg")),
                )
                # a repeat after resolution is a store hit, not a coalesce
                warm = await service.submit(_request("sor"))
                stats = service.stats()
            return results, warm, stats

        results, warm, stats = _run(body())
        assert all(r.ok for r in results)
        assert warm.ok and warm.source == "hit"
        assert stats["compiles"] == 2 and stats["hits"] == 1

    def test_unknown_kernel_is_structured_error(self, tmp_path):
        """Twice: a failed key resolution is reported, never memoised, so
        the second request resolves afresh and gets the same answer."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                results = [
                    await service.submit(_request("no-such-kernel")) for _ in range(2)
                ]
                stats = service.stats()
            return results, stats

        (first, second), stats = _run(body())
        assert not first.ok
        assert first.error == "WorkloadError"
        assert (second.error, second.message) == (first.error, first.message)
        assert stats["errors"] == 2
        assert stats["resolve"] == {"memo_hits": 0, "memo_misses": 2, "entries": 0}

    def test_validator_rejection_is_an_error_and_nothing_is_stored(
        self, tmp_path, monkeypatch
    ):
        """A mapping the validator rejects is a structured error to every
        waiter of the flight — never an ``unmappable`` artifact the store
        would serve forever — and the flight, the key memo and the slot
        are released: once the validator is sane the same request compiles."""
        import repro.compiler.paged as paged_mod
        from repro.util.errors import MappingError

        real = paged_mod.validate_mapping

        def rejecting(mapping, layout):
            raise MappingError("injected validator rejection")

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                monkeypatch.setattr(paged_mod, "validate_mapping", rejecting)
                failed = await asyncio.gather(
                    *(service.submit(_request()) for _ in range(3))
                )
                broken = service.stats()
                monkeypatch.setattr(paged_mod, "validate_mapping", real)
                healed = await service.submit(_request())
                return failed, broken, healed, service.stats()

        failed, broken, healed, stats = _run(body())
        assert [(r.ok, r.error) for r in failed] == [(False, "MappingError")] * 3
        assert all("injected" in r.message for r in failed)
        assert broken["store"]["puts"] == 0 and broken["compiles"] == 0
        assert broken["singleflight"]["in_flight"] == 0
        assert healed.ok and healed.source == "compiled"
        assert json.loads(healed.body)["unmappable"] is False
        assert stats["store"]["puts"] == 1 and stats["errors"] == 3

    def test_cancel_queued_request_drops_compile(self, tmp_path, monkeypatch):
        """Cancelling the only waiter of a queued compile drops it: the
        mapper never runs for it and nothing lands in the store."""
        import repro.serve.service as service_mod

        real = service_mod.compile_job

        def slow(job, **kwargs):
            time.sleep(0.3)
            return real(job, **kwargs)

        monkeypatch.setattr(service_mod, "compile_job", slow)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                leader = asyncio.ensure_future(service.submit(_request("sor")))
                await asyncio.sleep(0.1)  # leader occupies the only slot
                victim = asyncio.ensure_future(
                    service.submit(_request("mpeg", request_id="victim"))
                )
                await asyncio.sleep(0.05)
                assert await service.cancel("victim")
                res_victim = await victim
                res_leader = await leader
                stats = service.stats()
            return res_leader, res_victim, stats

        res_leader, res_victim, stats = _run(body())
        assert res_leader.ok
        assert not res_victim.ok and res_victim.error == "RequestCancelled"
        assert stats["cancelled"] == 1
        assert stats["store"]["puts"] == 1  # only the leader's artifact
        assert stats["scheduler"]["cancelled_queued"] == 1

    def test_concurrent_duplicate_request_id_is_rejected(self, tmp_path):
        """Two submits racing on one explicit request id: the id is
        reserved before key resolution is awaited, so the second is a
        structured DuplicateRequest (HTTP 400), the first is served, and
        every flight and slot is given back."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    service.submit(_request("sor", request_id="same")),
                    service.submit(_request("sor", request_id="same")),
                )
                return results, service.stats()

        (first, second), stats = _run(body())
        assert first.ok and first.source == "compiled"
        assert not second.ok and second.error == "DuplicateRequest"
        assert stats["requests"] == 1 and stats["compiles"] == 1
        assert stats["singleflight"]["in_flight"] == 0
        assert stats["scheduler"]["queued"] == 0
        assert stats["scheduler"]["running"] == 0

    def test_cancel_unknown_request_is_false(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                return await service.cancel("nope")

        assert _run(body()) is False


def _count_job_key(monkeypatch, before=None) -> list[CompileJob]:
    """Wrap the service's ``job_key`` (it runs on a pool thread): every
    call is recorded, *before* runs first."""
    import repro.serve.service as service_mod

    calls: list[CompileJob] = []
    real = service_mod.job_key

    def counting(job):
        calls.append(job)
        if before is not None:
            before()
        return real(job)

    monkeypatch.setattr(service_mod, "job_key", counting)
    return calls


def _count_hops_and_gets(monkeypatch, service):
    """Record what *service* hands its thread pool and asks its store:
    ``(functions submitted, keys probed)``."""
    hops, gets = [], []
    pool_submit, store_get = service._pool.submit, service.store.get

    def counting_submit(fn, *args):
        hops.append(fn)
        return pool_submit(fn, *args)

    def counting_get(key, **kwargs):
        gets.append(key)
        return store_get(key, **kwargs)

    monkeypatch.setattr(service._pool, "submit", counting_submit)
    monkeypatch.setattr(service.store, "get", counting_get)
    return hops, gets


class TestHitPath:
    """Count-based guards (no timing asserts) of what makes a hit cheap:
    one key resolution per job, one store probe per digest per service, and
    no thread hop once the job is stored."""

    def test_stored_job_is_served_from_the_loop(self, tmp_path, monkeypatch):
        """After a compile, a request is answered from the body memo: no
        thread hop, no key resolution, no store read, no flight, no slot."""
        key_calls = _count_job_key(monkeypatch)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                cold = await service.submit(_request())
                del key_calls[:]
                hops, gets = _count_hops_and_gets(monkeypatch, service)
                warm = await service.submit(_request())
                return cold, warm, hops, gets, service.stats()

        cold, warm, hops, gets, stats = _run(body())
        assert cold.source == "compiled" and warm.source == "hit"
        assert hops == [] and key_calls == [] and gets == []
        path = ArtifactStore(tmp_path).path_for(job_key(_request().to_job()))
        assert warm.body == path.read_bytes() == cold.body
        assert stats["resolve"] == {"memo_hits": 1, "memo_misses": 1, "entries": 1}
        assert stats["memo"] == {"entries": 1, "bytes": len(cold.body), "hits": 1}
        assert stats["store"]["hits"] == 0 and stats["store"]["misses"] == 1
        assert stats["scheduler"]["dispatched"] == 1 and stats["hits"] == 1

    def test_a_stored_digest_is_probed_once_per_service(self, tmp_path, monkeypatch):
        """A fresh service over a filled store: the first request of a
        digest probes the store on the loop — one ``store.get``, no thread
        hop — and every later one is a body-memo hit."""
        compile_many([_request().to_job()], store=ArtifactStore(tmp_path))

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                hops, gets = _count_hops_and_gets(monkeypatch, service)
                answers = [await service.submit(_request()) for _ in range(3)]
                return answers, hops, gets, service.stats()

        answers, hops, gets, stats = _run(body())
        path = ArtifactStore(tmp_path).path_for(job_key(_request().to_job()))
        assert [r.source for r in answers] == ["hit"] * 3
        assert all(r.body == path.read_bytes() for r in answers)
        assert hops == [job_key] and len(gets) == 1  # the hop is the resolution
        assert stats["memo"]["hits"] == 2 and stats["scheduler"]["dispatched"] == 1
        assert stats["store"]["hits"] == 1 and stats["hits"] == 3

    def test_the_body_memo_is_fifo_bounded(self, tmp_path, monkeypatch):
        """Oldest digest out first; an evicted digest is probed again, a
        store hit with the same bytes; ``close()`` empties the memo."""
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "_KEY_MEMO_MAX", 2)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            service = CompileService(config)
            async with service:
                cold = [await service.submit(_request(seed=seed)) for seed in (0, 1, 2)]
                held = [d for d, f in service._flights.items() if f.future.done()]
                again = [await service.submit(_request(seed=seed)) for seed in (2, 0)]
                stats = service.stats()
            return cold, held, again, stats, service.stats()["memo"]

        cold, held, again, stats, closed = _run(body())
        assert held == [cold[1].digest, cold[2].digest]
        assert [r.source for r in again] == ["hit", "hit"]
        assert [r.body for r in again] == [cold[2].body, cold[0].body]
        assert stats["memo"]["hits"] == 1 and stats["store"]["hits"] == 1
        assert stats["memo"]["entries"] == 2
        assert closed == {"entries": 0, "bytes": 0, "hits": 1}

    @pytest.mark.parametrize("how", ["failure", "cancel"])
    def test_failed_and_cancelled_flights_leave_no_body(
        self, tmp_path, monkeypatch, how
    ):
        """Only a flight that resolved with bytes enters the body memo: after
        a compile failure, or a flight cancelled while its job ran, the next
        request for the digest compiles."""
        import repro.compiler.paged as paged_mod
        from repro.util.errors import MappingError

        def rejecting(mapping, layout):
            raise MappingError("injected validator rejection")

        running, release = _hold_compiles(
            monkeypatch, lambda job: how == "cancel" and job.seed == 0
        )
        if how == "failure":
            monkeypatch.setattr(paged_mod, "validate_mapping", rejecting)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                pending = asyncio.ensure_future(
                    service.submit(_request(request_id="first"))
                )
                deadline = time.monotonic() + 30.0
                try:
                    if how == "cancel":
                        while not running.is_set() and time.monotonic() < deadline:
                            await asyncio.sleep(0.002)
                        assert await service.cancel("first")
                    first = await pending
                finally:
                    release.set()
                while _in_flight(service) and time.monotonic() < deadline:
                    await asyncio.sleep(0.002)
                left = service.stats()["memo"]
                monkeypatch.undo()
                return first, left, await service.submit(_request())

        first, left, second = _run(body())
        assert not first.ok
        assert first.error == ("MappingError" if how == "failure" else "RequestCancelled")
        assert left == {"entries": 0, "bytes": 0, "hits": 0}
        assert second.source == "compiled"
        assert second.body == compile_job(_request().to_job())[0].to_json().encode()

    def test_concurrent_first_requests_share_one_resolution(
        self, tmp_path, monkeypatch
    ):
        key_calls = _count_job_key(monkeypatch)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    *(service.submit(_request()) for _ in range(50))
                )
                flights = list(service._flights.values())
                return results, flights, service.stats()

        results, flights, stats = _run(body())
        assert len(key_calls) == 1
        assert sorted(r.source for r in results) == ["coalesced"] * 49 + ["compiled"]
        assert len({r.body for r in results}) == 1
        assert stats["compiles"] == 1 and stats["coalesced"] == 49
        assert stats["resolve"] == {"memo_hits": 49, "memo_misses": 1, "entries": 1}
        # one flight, joined 50 times and left 50 times: the digest's memo entry
        assert [f.waiters for f in flights] == [0] and flights[0].future.done()
        assert stats["singleflight"]["flights_started"] == 1
        assert stats["singleflight"]["in_flight"] == 0
        assert stats["singleflight"]["cancelled_flights"] == 0
        assert stats["scheduler"]["queued"] == 0
        assert stats["scheduler"]["running"] == 0
        assert stats["scheduler"]["dispatched"] == 1

    @pytest.mark.parametrize(
        "damage, warning",
        [("truncated", "discarding"), ("misaddressed", "does not match")],
        ids=["truncated", "misaddressed"],
    )
    def test_damaged_store_file_is_a_logged_miss(
        self, tmp_path, caplog, damage, warning
    ):
        """The on-loop probe keeps the store's corruption tolerance: a bad
        file is logged, recompiled and overwritten, and the answer is the
        offline bytes."""
        job, other = CompileJob("sor", 4, 2), CompileJob("mpeg", 4, 2)
        offline = ArtifactStore(tmp_path / "offline")
        compile_many([job, other], store=offline)
        good = offline.path_for(job_key(job)).read_bytes()
        bad = (
            good[: len(good) // 2]
            if damage == "truncated"
            else offline.path_for(job_key(other)).read_bytes()
        )
        path = ArtifactStore(tmp_path / "served").path_for(job_key(job))
        path.parent.mkdir(parents=True)
        path.write_bytes(bad)

        async def body():
            config = ServiceConfig(
                store_root=str(tmp_path / "served"), workers=1, slots=1
            )
            async with CompileService(config) as service:
                return await service.submit(_request()), service.stats()

        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            result, stats = _run(body())
        assert warning in caplog.text
        assert result.source == "compiled" and result.body == good
        assert path.read_bytes() == good
        assert stats["store"]["misses"] == 1 and stats["store"]["puts"] == 1

    @pytest.mark.parametrize("meanwhile", ["removed", "replaced", "garbage"])
    def test_a_hit_serves_the_bytes_it_validated(self, tmp_path, monkeypatch, meanwhile):
        """Two processes on one store: whatever the other one does to the
        file, the answer is the job's bytes.  The service that compiled it
        serves the bytes it holds without reading the file again; a fresh
        service reads the file once and serves what it validated, and a
        file that is already garbage when read is a logged miss and a
        recompile.  Never an error for bytes that were just validated."""
        request = _request()
        path = ArtifactStore(tmp_path).path_for(job_key(request.to_job()))
        other = compile_job(CompileJob("mpeg", 4, 2))[0].to_json().encode()
        reads = []

        def interfering(read):
            def patched(self, *args, **kwargs):
                if self != path:
                    return read(self, *args, **kwargs)
                reads.append(self)
                if meanwhile == "garbage" and len(reads) == 1:
                    path.write_bytes(b"{")
                data = read(self, *args, **kwargs)
                if meanwhile == "removed":
                    path.unlink()
                elif meanwhile == "replaced":
                    path.write_bytes(other)
                return data

            return patched

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                cold = await service.submit(request)
                monkeypatch.setattr(Path, "read_bytes", interfering(Path.read_bytes))
                monkeypatch.setattr(Path, "read_text", interfering(Path.read_text))
                held = await service.submit(request)
                held_reads = len(reads)
            async with CompileService(config) as fresh:
                warm = await fresh.submit(request)
                monkeypatch.undo()
            return cold, held, held_reads, warm

        cold, held, held_reads, warm = _run(body())
        assert cold.ok and held.ok and warm.ok, warm
        offline = compile_job(request.to_job())[0].to_json().encode()
        assert held.body == warm.body == cold.body == offline
        assert held.source == "hit" and held_reads == 0
        if meanwhile == "garbage":
            # read as garbage, recompiled, stored, read back
            assert warm.source == "compiled" and path.read_bytes() == cold.body
        else:
            assert warm.source == "hit" and len(reads) == 1

    @pytest.mark.parametrize("how", ["cancel", "task_cancel"])
    def test_cancel_while_resolving_spares_the_sibling(
        self, tmp_path, monkeypatch, how
    ):
        """One waiter going away — ``cancel()``, or its task cancelled as a
        dropped connection would — while the key is still resolving: it is
        answered RequestCancelled without ever joining a flight, and the
        sibling sharing that resolution still gets its bytes."""
        resolving, release = threading.Event(), threading.Event()

        def hold():
            resolving.set()
            assert release.wait(30.0)

        key_calls = _count_job_key(monkeypatch, before=hold)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                victim = asyncio.ensure_future(
                    service.submit(_request(request_id="victim"))
                )
                sibling = asyncio.ensure_future(
                    service.submit(_request(request_id="sibling"))
                )
                try:
                    deadline = time.monotonic() + 30.0
                    while not resolving.is_set() and time.monotonic() < deadline:
                        await asyncio.sleep(0.002)
                    assert resolving.is_set()
                    assert set(service._active) == {"victim", "sibling"}
                    if how == "cancel":
                        assert await service.cancel("victim")
                    else:
                        victim.cancel()
                finally:
                    release.set()
                answers = await asyncio.gather(
                    victim, sibling, return_exceptions=True
                )
                return answers, dict(service._active), service.stats()

        (gone, served), active, stats = _run(body())
        if how == "cancel":
            assert not gone.ok and gone.error == "RequestCancelled"
            assert stats["cancelled"] == 1
        else:
            assert isinstance(gone, asyncio.CancelledError)
        assert served.ok and served.source == "compiled"
        assert served.body == _offline_bytes(CompileJob("sor", 4, 2), tmp_path / "off")
        assert active == {} and len(key_calls) == 1
        assert stats["compiles"] == 1
        assert stats["singleflight"]["flights_started"] == 1
        assert stats["singleflight"]["cancelled_flights"] == 0
        assert stats["singleflight"]["in_flight"] == 0

    def test_memo_is_bounded_and_eviction_only_costs_a_resolution(
        self, tmp_path, monkeypatch
    ):
        """``seed`` is an unbounded wire field: more distinct jobs than the
        bound evict oldest-first, and an evicted job is simply resolved
        again — still a store hit, still the same bytes."""
        import repro.serve.service as service_mod

        monkeypatch.setattr(service_mod, "_KEY_MEMO_MAX", 2)
        key_calls = _count_job_key(monkeypatch)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                out = []
                for seed in (0, 1, 2, 0):
                    out.append(await service.submit(_request(seed=seed)))
                    assert len(service._keys) <= 2
                return out, [job.seed for job in service._keys], service.stats()

        (first, _, _, again), memoised, stats = _run(body())
        assert [job.seed for job in key_calls] == [0, 1, 2, 0]
        assert memoised == [2, 0]
        assert again.source == "hit" and again.body == first.body
        assert stats["resolve"] == {"memo_hits": 0, "memo_misses": 4, "entries": 2}
        assert stats["compiles"] == 3 and stats["hits"] == 1


def _hold_compiles(monkeypatch, which=lambda job: True):
    """Hold the service's slot-thread compiles of the jobs *which* picks
    until released: ``(running, release)`` events — *running* is set once
    such a compile has started, *release* lets it go on to the end."""
    import repro.serve.service as service_mod

    running, release = threading.Event(), threading.Event()
    real = service_mod.compile_job

    def held(job, **kwargs):
        if which(job):
            running.set()
            assert release.wait(30.0)
        return real(job, **kwargs)

    monkeypatch.setattr(service_mod, "compile_job", held)
    return running, release


def _in_flight(service) -> int:
    """The flights of *service* still pending (not yet resolved)."""
    return service.stats()["singleflight"]["in_flight"]


async def _until(predicate, timeout=30.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        await asyncio.sleep(0.002)
    assert predicate()


class TestFlightTable:
    """One record per digest, refcounted by the requests attached to it."""

    def test_only_the_last_waiter_to_leave_fires_the_token(self, tmp_path, monkeypatch):
        """Two requests on one held compile.  The first cancel answers its
        request and leaves the compile running for the other; the second
        fires the token, and the job, run to its end, is dropped unstored
        and leaves no flight behind."""
        running, release = _hold_compiles(monkeypatch)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                pending = [
                    asyncio.ensure_future(service.submit(_request(request_id=rid)))
                    for rid in ("a", "b")
                ]
                try:
                    await _until(running.is_set)
                    [flight] = service._flights.values()
                    joined = (flight.waiters, service.stats()["coalesced"])
                    seen = []
                    for rid, waiting in zip(("a", "b"), pending):
                        assert await service.cancel(rid)
                        await waiting  # answered at once, the compile still held
                        seen.append(
                            (flight.token.cancelled, service.stats()["singleflight"])
                        )
                finally:
                    release.set()
                answers = await asyncio.gather(*pending)
                await _until(lambda: _idle(service.stats()))
                return joined, seen, answers, flight, service.stats()

        joined, seen, answers, flight, stats = _run(body())
        assert joined == (2, 1)
        (fired_first, after_first), (fired_second, after_second) = seen
        assert not fired_first and after_first["cancelled_flights"] == 0
        assert after_first["in_flight"] == 1
        assert fired_second and after_second["cancelled_flights"] == 1
        assert [r.error for r in answers] == ["RequestCancelled"] * 2
        assert stats["cancelled"] == 2 and stats["compiles"] == 0
        assert stats["store"]["puts"] == 0 and _idle(stats)
        assert stats["memo"]["entries"] == 0 and not flight.waiters


class TestLifecycle:
    """``close()`` with work queued, and a service started again after it."""

    def test_close_answers_a_queued_request_cancelled(self, tmp_path, monkeypatch):
        """One slot, busy with job A; job B waits in the scheduler.
        ``close()`` lets A finish and store, answers B ``RequestCancelled``
        without running it, stores nothing for B, and returns."""
        import repro.serve.service as service_mod

        real = service_mod.compile_job
        compiled = []

        def slow(job, **kwargs):
            compiled.append(job.kernel)
            time.sleep(0.3)
            return real(job, **kwargs)

        monkeypatch.setattr(service_mod, "compile_job", slow)
        first, queued = _request("sor"), _request("mpeg")

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            service = await CompileService(config).start()
            a = asyncio.ensure_future(service.submit(first))
            await _until(lambda: service.scheduler.stats()["running"])
            b = asyncio.ensure_future(service.submit(queued))
            await _until(lambda: service.scheduler.stats()["queued"])
            await asyncio.wait_for(service.close(), 10)
            answers = await asyncio.wait_for(asyncio.gather(a, b), 10)
            return answers, service.stats()

        (done, dropped), stats = _run(body())
        assert done.ok and done.source == "compiled"
        assert (dropped.ok, dropped.error) == (False, "RequestCancelled")
        assert compiled == ["sor"] and stats["store"]["puts"] == 1
        assert not ArtifactStore(tmp_path).path_for(job_key(queued.to_job())).exists()
        assert stats["scheduler"]["cancelled_queued"] == 1 and _idle(stats)

    @pytest.mark.parametrize("loops", ["same_loop", "second_asyncio_run"])
    def test_a_restarted_service_serves(self, tmp_path, loops):
        """``close()`` then ``start()`` again, in the same loop or under a
        second ``asyncio.run``: a stored digest is a store hit and a new one
        compiles, and nothing is left pending."""
        config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
        service = CompileService(config)

        async def run(request):
            async with service:
                return await asyncio.wait_for(service.submit(request), 30)

        async def both():
            return await run(_request("sor")), await run(_request("mpeg"))

        if loops == "same_loop":
            first, second = _run(both())
        else:
            first, second = _run(run(_request("sor"))), _run(run(_request("mpeg")))
        again = _run(run(_request("sor")))
        assert first.source == second.source == "compiled"
        assert again.ok and again.source == "hit"
        stats = service.stats()
        assert stats["compiles"] == 2 and stats["errors"] == 0 and _idle(stats)

    def test_a_submit_the_scheduler_refuses_is_a_structured_error(
        self, tmp_path, monkeypatch
    ):
        """A leader whose ``scheduler.submit`` raises resolves its flight
        with that error: the request is answered, nothing is left pending,
        and the next request for the digest compiles."""

        def refusing(*args, **kwargs):
            raise RuntimeError("injected refusal")

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with CompileService(config) as service:
                monkeypatch.setattr(service.scheduler, "submit", refusing)
                refused = await asyncio.wait_for(service.submit(_request()), 30)
                left = _in_flight(service)
                monkeypatch.undo()
                served = await asyncio.wait_for(service.submit(_request()), 30)
                return refused, left, served, service.stats()

        refused, left, served, stats = _run(body())
        assert (refused.ok, refused.error) == (False, "RuntimeError")
        assert refused.message == "injected refusal" and refused.digest
        assert left == 0
        assert served.ok and served.source == "compiled"
        assert stats["errors"] == 1 and stats["memo"]["entries"] == 1


class TestMidLadderCancellation:
    """A cancel that lands while the job's ladders are climbing."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sole_waiter_cancelling_a_running_compile(
        self, tmp_path, monkeypatch, workers
    ):
        """The only waiter of a request whose compile is already running
        cancels and is answered at once, while the job still runs.  One
        contract at every worker count — on a slot thread (``workers=1``,
        held here until the answer is in) or in a worker process
        (``workers=2``): the job runs to its end, its result is dropped
        unstored, its slot is given back when it ends, and no flight or key
        resolution is left behind."""
        running, release = _hold_compiles(monkeypatch)
        if workers > 1:
            running.set()  # the job runs in another process, unseen
        request = _request("sobel", page_size=4, request_id="victim")  # 0.3 s

        async def body():
            config = ServiceConfig(
                store_root=str(tmp_path), workers=workers, slots=2
            )
            async with CompileService(config) as service:
                pending = asyncio.ensure_future(service.submit(request))
                deadline = time.monotonic() + 30.0
                try:
                    while (
                        not (running.is_set() and service.scheduler.stats()["running"])
                        and time.monotonic() < deadline
                    ):
                        await asyncio.sleep(0.005)
                    assert service.scheduler.stats()["running"] == 1
                    assert await service.cancel("victim")
                    result = await pending
                    answered_while_running = service.scheduler.stats()["running"]
                finally:
                    release.set()
                while (
                    service.scheduler.stats()["running"] or _in_flight(service)
                ) and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)
                unresolved = [f for f in service._keys.values() if not f.done()]
                return result, answered_while_running, unresolved, service.stats()

        result, answered_while_running, unresolved, stats = _run(body())
        assert not result.ok and result.error == "RequestCancelled"
        assert answered_while_running == 1
        key = job_key(request.to_job())
        assert not ArtifactStore(tmp_path).path_for(key).exists()
        assert stats["store"]["puts"] == 0
        assert stats["compiles"] == 0 and stats["cancelled"] == 1
        assert _idle(stats) and not unresolved
        assert stats["singleflight"]["cancelled_flights"] == 1


class TestProbeMemo:
    """``workers=1``: the compiles of one service share probe outcomes —
    and nothing else about an answer changes."""

    SWEEP = [
        {"kernel": kernel, "page_size": ps, "seed": seed}
        for kernel in ("sor", "mpeg")
        for ps in (2, 4)
        for seed in (0, 1)
    ]

    def _serve(self, tmp_path, payloads):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            service = CompileService(config)
            async with service:
                results = [
                    await service.submit(CompileRequest.from_dict(p)) for p in payloads
                ]
                stats = service.stats()
            return results, stats, service

        return _run(body())

    def test_served_bytes_equal_offline_bytes_with_the_memo_warm(self, tmp_path):
        results, stats, service = self._serve(tmp_path, self.SWEEP)
        for payload, result in zip(self.SWEEP, results):
            job = CompileRequest.from_dict(payload).to_job()
            assert result.source == "compiled"
            assert result.body == compile_job(job)[0].to_json().encode(), payload
        probes = stats["probes"]
        assert probes["run"] == probes["entries"] > 0 and 2 * probes["shared"] > probes["run"]
        # the memo is the service's, and goes with it
        assert service.stats()["probes"] == {**probes, "entries": 0}

    def test_the_memo_is_bounded(self, tmp_path, monkeypatch):
        """Oldest out first; an evicted probe is simply run again."""
        import repro.compiler.search as search_mod

        free, free_stats, _service = self._serve(tmp_path / "free", self.SWEEP[:2])
        monkeypatch.setattr(search_mod, "_PROBE_MEMO_MAX", 3)
        bounded, stats, _service = self._serve(tmp_path / "bounded", self.SWEEP[:2])
        assert stats["probes"]["entries"] == 3 < free_stats["probes"]["entries"]
        assert stats["probes"]["run"] > free_stats["probes"]["run"]
        assert [r.body for r in bounded] == [r.body for r in free]

    def test_a_cancelled_flight_stores_nothing_and_poisons_nothing(
        self, tmp_path, monkeypatch
    ):
        """A miss cancelled while its job runs: the job runs to its end,
        leaves its probes in the memo, whole, and no artifact in the store;
        a sibling job of the same kernel (another mapper seed) then shares
        those probes and is served the bytes ``compile_job`` gives it."""
        running, release = _hold_compiles(monkeypatch, lambda job: job.seed == 0)
        victim = _request("compress", request_id="victim")
        sibling = _request("compress", seed=1)
        path = ArtifactStore(tmp_path).path_for(job_key(victim.to_job()))

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=2)
            async with CompileService(config) as service:
                pending = asyncio.ensure_future(service.submit(victim))
                deadline = time.monotonic() + 30.0
                try:
                    while not running.is_set() and time.monotonic() < deadline:
                        await asyncio.sleep(0.002)
                    assert await service.cancel("victim")
                    gone = await pending
                finally:
                    release.set()
                while _in_flight(service) and time.monotonic() < deadline:
                    await asyncio.sleep(0.002)
                stored, left = path.exists(), service.stats()["probes"]
                served = await service.submit(sibling)
                return gone, stored, left, served, service.stats()

        gone, stored, left, served, stats = _run(body())
        assert gone.error == "RequestCancelled" and not stored
        assert left["run"] == left["entries"] > 0 and left["shared"] == 0
        assert served.source == "compiled"
        assert served.body == compile_job(sibling.to_job())[0].to_json().encode()
        assert stats["probes"]["shared"] > 0
        assert stats["store"]["puts"] == 1 and stats["compiles"] == 1


# ------------------------------------------- whole jobs in worker processes


def _idle(stats: dict) -> bool:
    """Every slot, flight and pending key resolution has been given back."""
    return (
        stats["scheduler"]["running"] == 0
        and stats["scheduler"]["queued"] == 0
        and stats["singleflight"]["in_flight"] == 0
    )


class TestJobPool:
    """``workers=2``: a miss is a whole job in a spawned worker process,
    stored by the parent — with the guarantees the slot-thread path has."""

    def test_served_bytes_match_offline_compile_job(self, tmp_path):
        requests = [
            _request("sor"),
            _request("sor", size=8, page_size=4, arch="8x8-memcols", backend="hier"),
        ]

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=2, slots=2)
            async with CompileService(config) as service:
                cold = await asyncio.gather(*map(service.submit, requests))
                warm = await asyncio.gather(*map(service.submit, requests))
                return cold, warm, service.stats()

        cold, warm, stats = _run(body())
        assert [r.source for r in cold + warm] == ["compiled"] * 2 + ["hit"] * 2
        for request, served, again in zip(requests, cold, warm):
            offline = compile_job(request.to_job())[0].to_json().encode()
            assert served.body == again.body == offline
        assert stats["compiles"] == stats["store"]["puts"] == 2 and _idle(stats)
        # the hits are the compiles' read-backs, held in the body memo
        assert stats["memo"]["hits"] == 2 and stats["store"]["hits"] == 0

    def test_failing_job_is_that_requests_error_only(self, tmp_path, monkeypatch):
        """A compile that raises in the worker comes back as a
        ``CompileFailure``: a structured error for that flight, nothing
        stored, and its sibling in the other worker compiles."""
        import repro.serve.service as service_mod

        def sor_key(job):  # resolves in the parent; only the worker's compile fails
            return job_key(CompileJob("sor", job.size, job.page_size, seed=job.seed))

        monkeypatch.setattr(service_mod, "job_key", sor_key)

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=2, slots=2)
            async with CompileService(config) as service:
                results = await asyncio.gather(
                    service.submit(_request("no-such-kernel")),
                    service.submit(_request("sor", seed=1)),
                )
                return results, service.stats()

        (failed, sibling), stats = _run(body())
        assert (failed.ok, failed.error) == (False, "WorkloadError")
        assert "no-such-kernel" in failed.message
        assert sibling.ok and sibling.source == "compiled"
        assert stats["errors"] == 1 and stats["compiles"] == 1
        assert stats["store"]["puts"] == 1 and _idle(stats)

    def test_dead_worker_is_one_failed_request_not_a_wedged_service(self, tmp_path):
        """SIGKILL a warm pool process, and wait until it is dead, before
        the next miss: that request is answered ``BrokenProcessPool``
        (never stored, never ``unmappable``), the pool is replaced, and the
        next three misses compile.  The kill lands before the dispatch, so
        the outcome does not depend on how long the victim's compile takes."""
        victim = _request("sobel", page_size=4)
        after = [_request(kernel) for kernel in ("sor", "mpeg", "gsr")]

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=2, slots=2)
            async with CompileService(config) as service:
                worker = multiprocessing.active_children()[0]
                os.kill(worker.pid, signal.SIGKILL)
                worker.join(10)
                assert not worker.is_alive()
                # the parent commit hung on the third miss after the kill
                killed = await asyncio.wait_for(service.submit(victim), 60)
                served = [
                    await asyncio.wait_for(service.submit(r), 60) for r in after
                ]
                unresolved = [f for f in service._keys.values() if not f.done()]
                return killed, served, unresolved, service.stats()

        killed, served, unresolved, stats = _run(body())
        assert (killed.ok, killed.error) == (False, "BrokenProcessPool")
        assert not ArtifactStore(tmp_path).path_for(job_key(victim.to_job())).exists()
        for request, result in zip(after, served):
            assert result.source == "compiled"
            assert result.body == compile_job(request.to_job())[0].to_json().encode()
        assert stats["errors"] == 1 and stats["compiles"] == 3
        assert stats["store"]["puts"] == 3 and _idle(stats) and not unresolved


# ----------------------------------------------------- HTTP server + parity


def _offline_bytes(job: CompileJob, root) -> bytes:
    store = ArtifactStore(root)
    compile_many([job], store=store)
    return store.path_for(job_key(job)).read_bytes()


class TestServeServer:
    def test_served_bytes_match_offline_compile_many(self, tmp_path):
        """The tentpole's acceptance bar: responses byte-identical to
        offline compile_many output, at any concurrency."""
        payloads = [
            {"kernel": "sor", "size": 4, "page_size": 2},
            {"kernel": "mpeg", "size": 4, "page_size": 2},
        ]

        async def body():
            config = ServiceConfig(
                store_root=str(tmp_path / "served"), workers=1, slots=2
            )
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    out = {}
                    for payload in payloads:
                        # twice each: a cold compile and a warm hit must
                        # serve the same bytes
                        status, headers, cold = await client.compile(payload)
                        assert status == 200
                        status, headers, warm = await client.compile(payload)
                        assert status == 200
                        assert headers["x-repro-source"] == "hit"
                        assert cold == warm
                        out[payload["kernel"]] = cold
            return out

        served = _run(body())
        for payload in payloads:
            job = CompileJob(payload["kernel"], 4, 2)
            offline = _offline_bytes(job, tmp_path / f"offline-{job.kernel}")
            assert served[job.kernel] == offline

    def test_http_endpoints_and_errors(self, tmp_path):
        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    health = await client.request("GET", "/healthz")
                    missing = await client.request("GET", "/no-such-route")
                    bad_method = await client.request("GET", "/compile")
                    unknown_kernel = await client.compile({"kernel": "nope"})
                    bad_field = await client.compile({"kernel": "sor", "oops": 1})
                    gone_backend = await client.compile(
                        {"kernel": "sor", "backend": "exact"}
                    )
                    rpc = await client.request(
                        "POST", "/rpc", {"jsonrpc": "2.0", "id": 1, "method": "ping"}
                    )
                    stats = await client.request("GET", "/stats")
            return (
                health,
                stats,
                missing,
                bad_method,
                unknown_kernel,
                bad_field,
                gone_backend,
                rpc,
            )

        (
            health, stats, missing, bad_method, unknown, bad_field, gone_backend,
            rpc,
        ) = _run(body())
        assert health[0] == 200 and json.loads(health[2]) == {"ok": True}
        assert stats[0] == 200 and json.loads(stats[2])["requests"] == 1
        # the one request that reached the service failed to resolve: a
        # memo miss, evicted instead of cached
        assert json.loads(stats[2])["resolve"] == {
            "memo_hits": 0, "memo_misses": 1, "entries": 0,
        }
        assert missing[0] == 404
        assert bad_method[0] == 405
        assert unknown[0] == 404
        assert json.loads(unknown[2])["error"] == "WorkloadError"
        assert bad_field[0] == 400
        assert gone_backend[0] == 400
        assert "('flat', 'hier')" in json.loads(gone_backend[2])["message"]
        assert rpc[0] == 404  # the JSON-RPC envelope is gone: REST routes only

    @pytest.mark.parametrize("field", ["request_id", "tenant"])
    @pytest.mark.parametrize(
        "value", ["a\r\nX-Evil: 1", "\u00e9-1"], ids=["crlf", "non_ascii"]
    )
    def test_header_unsafe_ids_are_rejected_before_any_work(
        self, tmp_path, field, value
    ):
        """``request_id`` (and ``tenant``, which a server-assigned id
        embeds) is echoed in ``X-Repro-Request-Id``: CR/LF used to inject a
        response header line, non-ASCII used to compile the kernel and then
        die encoding the headers (500).  Both are a 400 up front."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    answer = await client.compile(
                        {"kernel": "sor", "page_size": 2, field: value}
                    )
                    # the connection is still framed correctly afterwards
                    health = await client.request("GET", "/healthz")
                return answer, health, server.service.stats()

        (status, headers, payload), health, stats = _run(body())
        assert status == 400 and "x-evil" not in headers
        assert json.loads(payload)["error"] == "ProtocolError"
        assert health[0] == 200
        assert stats["requests"] == 0 and stats["compiles"] == 0
        assert stats["store"] == {
            "hits": 0, "misses": 0, "puts": 0, "compile_seconds": 0.0,
        }
        assert not any(ArtifactStore(tmp_path).walk())

    def test_cancel_over_http(self, tmp_path, monkeypatch):
        """``POST /cancel`` on a request held in the queue (one slot, a
        compile running ahead of it): the cancel answers ``true``, the
        request's ``/compile`` a 409, an unknown id ``false``; a body that
        is not an object, or whose ``request_id`` is missing or not a
        string, is a 400 — and afterwards every flight, slot and key
        resolution has been given back."""
        running, release = _hold_compiles(monkeypatch, lambda job: job.kernel == "sor")

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                service = server.service
                clients = [ServeClient(server.host, server.port) for _ in range(3)]
                for client in clients:
                    await client.connect()
                first, second, control = clients

                def cancel(payload):
                    return control.request("POST", "/cancel", payload)

                try:
                    ahead = asyncio.ensure_future(
                        first.compile({"kernel": "sor", "page_size": 2})
                    )
                    deadline = time.monotonic() + 30.0
                    while not running.is_set() and time.monotonic() < deadline:
                        await asyncio.sleep(0.002)
                    victim = asyncio.ensure_future(
                        second.compile(
                            {"kernel": "mpeg", "page_size": 2, "request_id": "victim"}
                        )
                    )
                    while (
                        not service.scheduler.stats()["queued"]
                        and time.monotonic() < deadline
                    ):
                        await asyncio.sleep(0.002)
                    cancelled = await cancel({"request_id": "victim"})
                    refused = await victim
                    unknown = await cancel({"request_id": "no-such-request"})
                    bad = [
                        await cancel(payload)
                        for payload in ({}, {"request_id": 7}, [1, 2], "x")
                    ]
                finally:
                    release.set()
                served = await ahead
                for client in clients:
                    await client.close()
                unresolved = [f for f in service._keys.values() if not f.done()]
                return cancelled, refused, unknown, bad, served, unresolved, service.stats()

        cancelled, refused, unknown, bad, served, unresolved, stats = _run(body())
        assert cancelled[0] == 200
        assert json.loads(cancelled[2]) == {"request_id": "victim", "cancelled": True}
        assert refused[0] == 409
        assert json.loads(refused[2])["error"] == "RequestCancelled"
        assert unknown[0] == 200 and json.loads(unknown[2])["cancelled"] is False
        assert [status for status, _headers, _body in bad] == [400] * 4
        assert all(json.loads(b)["error"] == "ProtocolError" for _s, _h, b in bad)
        assert served[0] == 200 and served[1]["x-repro-source"] == "compiled"
        assert stats["cancelled"] == 1 and stats["compiles"] == 1
        assert stats["scheduler"]["cancelled_queued"] == 1
        assert _idle(stats) and not unresolved


_HEAD = b"GET /healthz HTTP/1.1\r\n"
_PIPELINED_HEALTHZ = _HEAD + b"\r\n"


class TestConnections:
    """Raw-socket framing faults and shutdown with connections still open."""

    @pytest.mark.parametrize(
        "head, eof",
        [
            (_HEAD + b"X-Flood: 1\r\n" * (MAX_HEADER_LINES + 1), False),
            (_HEAD + b"X-Long: " + b"a" * (MAX_HEAD_BYTES - len(_HEAD) - 9) + b"\r\n", False),
            (_HEAD + b"no colon here\r\n", False),
            (_HEAD + b"Host: x\r\n", True),
            (_HEAD + b"Content-Length: 1_0\r\n\r\n" + b"x" * 10, False),
            (_HEAD + b"Content-Length: +5\r\n\r\n" + b"x" * 5, False),
            (_HEAD + b"Content-Length: -0\r\n\r\n", False),
            (
                b"POST /compile HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
                b'11\r\n{"kernel": "sor"}\r\n0\r\n\r\n' + _PIPELINED_HEALTHZ,
                False,
            ),
            (
                b"POST /compile HTTP/1.1\r\nContent-Length: 17\r\nContent-Length: 2\r\n\r\n"
                b'{"kernel": "sor"}' + _PIPELINED_HEALTHZ,
                False,
            ),
        ],
        ids=[
            "too_many_lines",
            "over_long_line",
            "no_colon",
            "eof_in_head",
            "length_underscore",
            "length_plus",
            "length_minus_zero",
            "chunked",
            "conflicting_lengths",
        ],
    )
    def test_a_bad_request_head_is_a_400_and_a_closed_connection(
        self, tmp_path, head, eof
    ):
        """The head is read only up to its caps: a flood of header lines, one
        line past the byte cap, a line without a colon, a head cut short
        by EOF, a ``Content-Length`` that is not ASCII digits alone (what
        ``int()`` would take: ``1_0`` as 10, ``+5``, ``-0``), a chunked body
        or two different ``Content-Length`` values is answered one 400 and
        the connection closes: no body byte is parsed as a second request,
        and a request pipelined behind it gets no answer.  The server goes
        on serving with nothing left held."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                reader, writer = await asyncio.open_connection(server.host, server.port)
                writer.write(head)
                if eof:
                    writer.write_eof()
                answer = await asyncio.wait_for(reader.read(), 10.0)
                writer.close()
                async with ServeClient(server.host, server.port) as client:
                    health = await client.request("GET", "/healthz")
                return answer, health, server.service.stats()

        answer, health, stats = _run(body())
        status_line, _, payload = answer.partition(b"\r\n")
        assert status_line == b"HTTP/1.1 400 Bad Request", answer[:200]
        assert answer.count(b"HTTP/1.1 ") == 1, answer
        assert json.loads(payload.partition(b"\r\n\r\n")[2])["error"] == "ProtocolError"
        assert health[0] == 200
        assert stats["requests"] == 0 and _idle(stats)

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"kernel": "sor", "seed": ' + b"9" * 5001 + b"}",
            b"[" * 100_000,
            b'{"kernel": "\xff"}',
        ],
        ids=["int_past_digit_limit", "nested_past_recursion_limit", "not_utf8"],
    )
    def test_an_undecodable_body_is_a_400_and_nothing_logged(
        self, tmp_path, caplog, payload
    ):
        """A body ``json.loads`` refuses with something other than a
        ``JSONDecodeError`` — an integer past the interpreter's digit limit,
        nesting past the recursion limit, bytes that are not UTF-8 — is a
        400 like any malformed body, logs nothing, and the connection
        serves on."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                async with ServeClient(server.host, server.port) as client:
                    client._writer.write(
                        b"POST /compile HTTP/1.1\r\nContent-Length: "
                        + str(len(payload)).encode("ascii")
                        + b"\r\n\r\n"
                        + payload
                    )
                    status_line = await client._reader.readline()
                    head = await client._reader.readuntil(b"\r\n\r\n")
                    length = int(
                        head.lower().partition(b"content-length:")[2].split()[0]
                    )
                    answer = json.loads(await client._reader.readexactly(length))
                    health = await client.request("GET", "/healthz")
                return status_line, answer, health, server.service.stats()

        with caplog.at_level("WARNING"):
            status_line, answer, health, stats = _run(body())
        assert status_line == b"HTTP/1.1 400 Bad Request\r\n"
        assert answer["error"] == "ProtocolError"
        assert "not valid JSON" in answer["message"]
        assert health[0] == 200
        assert stats["requests"] == 0 and _idle(stats)
        assert [r.getMessage() for r in caplog.records] == []

    def test_close_ends_an_idle_keep_alive_connection(self, tmp_path):
        """A client idle on a keep-alive connection reads EOF within 1 s of
        ``close()``, which returns once that connection is gone."""

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            server = await ServeServer(config).start()
            client = await ServeClient(server.host, server.port).connect()
            health = await client.request("GET", "/healthz")
            closing = asyncio.ensure_future(server.close())
            try:
                eof = await asyncio.wait_for(client._reader.read(), 1.0)
            finally:
                await closing
                await client.close()
            return health, eof

        health, eof = _run(body())
        assert health[0] == 200 and eof == b""

    def test_shutdown_with_an_idle_connection_logs_no_error(self, tmp_path, caplog):
        """A connection still open, idle, when the server closes and its
        event loop is torn down: no handler is left to be cancelled, so
        nothing is logged at ERROR (each such handler used to log a
        ``CancelledError`` traceback)."""
        idle: list[socket.socket] = []

        async def body():
            config = ServiceConfig(store_root=str(tmp_path), workers=1, slots=1)
            async with ServeServer(config) as server:
                idle.append(socket.create_connection((server.host, server.port)))
                idle[0].sendall(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
                deadline = time.monotonic() + 10.0
                while (
                    not select.select(idle, [], [], 0)[0] and time.monotonic() < deadline
                ):
                    await asyncio.sleep(0.01)  # until the answer is on its way

        try:
            with caplog.at_level("ERROR"):
                _run(body())
            idle[0].settimeout(1.0)
            answer = b""
            while chunk := idle[0].recv(4096):
                answer += chunk
        finally:
            for sock in idle:
                sock.close()
        assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == []
        assert answer.startswith(b"HTTP/1.1 200 OK")


def _live_children(pid: int) -> set[int]:
    """Pids of the live (non-zombie) processes whose parent is *pid*."""
    out = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, ppid = stat.read_text().rpartition(")")[2].split()[:2]
        except OSError:  # exited while we looked
            continue
        if int(ppid) == pid and state != "Z":
            out.add(int(stat.parent.name))
    return out


def _mapped_libraries(pid: int) -> set[str]:
    """Base names of the files mapped into process *pid*."""
    lines = Path(f"/proc/{pid}/maps").read_text().splitlines()
    return {Path(fields[5]).name for fields in map(str.split, lines) if len(fields) > 5}


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()[0]
    except OSError:
        return False
    return state != "Z"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_sigterm_shuts_the_pool_down_and_exits_zero(tmp_path):
    """``python -m repro.serve --workers 2`` stopped with SIGTERM closes
    like Ctrl-C does: it exits 0 within 10 s and leaves none of its
    children behind — neither the two spawned workers nor the resource
    tracker is re-parented and left running.  A client idle on a
    keep-alive connection across it reads EOF, and nothing is logged but
    the stop line.  Neither the server nor a worker maps OpenSSL
    (``_ssl``, libssl), and no worker maps the event loop's ``_asyncio``:
    a worker imports the compile path only."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(repro.__file__).resolve().parent.parent),
        "PYTHONUNBUFFERED": "1",
    }
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve", "--port", "0", "--workers", "2",
            "--store", str(tmp_path / "store"),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
    )
    children: set[int] = set()
    idle = None
    try:
        assert select.select([proc.stdout], [], [], 30.0)[0], "no address printed"
        line = proc.stdout.readline().decode()
        assert "listening on" in line, line
        address = line.split()[-1]
        with urllib.request.urlopen(f"{address}/healthz", timeout=10) as health:
            assert json.loads(health.read()) == {"ok": True}
        host, port = address.removeprefix("http://").split(":")
        idle = socket.create_connection((host, int(port)), timeout=10)
        idle.sendall(b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        answer = b""
        while not answer.endswith(b'{"ok": true}\n'):
            answer += idle.recv(4096)
        children = _live_children(proc.pid)
        assert len(children) >= 2  # the workers, and the resource tracker
        for pid in children | {proc.pid}:
            mapped = _mapped_libraries(pid)
            assert not {m for m in mapped if m.startswith(("libssl", "_ssl."))}, pid
            if pid != proc.pid:
                assert not {m for m in mapped if m.startswith("_asyncio.")}, pid
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        assert idle.recv(4096) == b""
        log = proc.stdout.read().decode()
        assert log.rstrip().endswith("repro.serve: stopped, worker pool shut down"), log
        assert "Exception" not in log and "Traceback" not in log, log
        deadline = time.monotonic() + 5.0
        while any(map(_alive, children)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in children if _alive(pid)]
    finally:
        if idle is not None:
            idle.close()
        for pid in children | {proc.pid}:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        proc.wait(timeout=10)
        proc.stdout.close()
