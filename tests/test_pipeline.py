"""Tests for the compilation pipeline: fingerprints, the CompiledKernel
artifact, the content-addressed store, and the compile_many() fan-out."""

from __future__ import annotations

from fractions import Fraction

from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.compiler.ems import MapperConfig
from repro.dfg.graph import DFG
from repro.kernels import get_kernel
from repro.pipeline import (
    ArtifactKey,
    ArtifactStore,
    CompiledKernel,
    CompileJob,
    compile_job,
    compile_many,
    job_key,
)


# ---------------------------------------------------------------- fingerprints


class TestFingerprints:
    def test_dfg_fingerprint_stable(self):
        assert get_kernel("sor").build().fingerprint() == get_kernel("sor").build().fingerprint()

    def test_dfg_fingerprint_ignores_names(self):
        d = get_kernel("sor").build()
        renamed = DFG()
        remap = {}
        for op in d.ops.values():
            o = renamed.add_op(op.opcode, name=f"x{op.id}", immediate=op.immediate,
                               memref=op.memref)
            remap[op.id] = o.id
        for e in d.edges.values():
            renamed.add_edge(remap[e.src], remap[e.dst], e.operand_index,
                             distance=e.distance, init=e.init)
        assert renamed.fingerprint() == d.fingerprint()

    def test_dfg_fingerprint_changes_on_mutation(self):
        fps = {get_kernel(k).build().fingerprint() for k in ("sor", "laplace", "wavelet")}
        assert len(fps) == 3

    def test_arch_fingerprint(self):
        assert CGRA(4, 4).fingerprint() == CGRA(4, 4).fingerprint()
        assert CGRA(4, 4).fingerprint() != CGRA(6, 6).fingerprint()
        assert CGRA(4, 4).fingerprint() != CGRA(4, 4, rf_depth=16).fingerprint()

    def test_mapper_fingerprint(self):
        assert MapperConfig().fingerprint() == MapperConfig().fingerprint()
        assert MapperConfig(seed=1).fingerprint() != MapperConfig(seed=2).fingerprint()

    def test_job_key_sensitivity(self):
        base = job_key(CompileJob("sor", 4, 4))
        assert job_key(CompileJob("sor", 4, 4)) == base
        # each knob lands in a different fingerprint component
        assert job_key(CompileJob("laplace", 4, 4)).dfg_fp != base.dfg_fp
        assert job_key(CompileJob("sor", 6, 4)).arch_fp != base.arch_fp
        assert job_key(CompileJob("sor", 4, 2)).arch_fp != base.arch_fp
        assert job_key(CompileJob("sor", 4, 4, seed=9)).mapper_fp != base.mapper_fp

    def test_a_compile_builds_and_fingerprints_its_job_once(self, monkeypatch):
        """``job_key`` takes the DFG and the fabric the caller has built,
        so a compile builds each once and fingerprints the DFG once — the
        memo's keys start from ``key.dfg_fp``, not from another hash."""
        import repro.pipeline.compile as pc
        from repro.compiler.search import ProbeMemo

        job = CompileJob("sor", 4, 2)
        dfg, cgra = pc.get_kernel("sor").build(), job.build_cgra()
        assert job_key(job, dfg, cgra) == job_key(job, dfg=dfg) == job_key(job)
        calls = {"kernel": 0, "cgra": 0, "fingerprint": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        spec = pc.get_kernel("sor")
        monkeypatch.setattr(
            pc, "get_kernel", lambda name: SimpleNamespace(build=counted("kernel", spec.build))
        )
        monkeypatch.setattr(CompileJob, "build_cgra", counted("cgra", CompileJob.build_cgra))
        monkeypatch.setattr(DFG, "fingerprint", counted("fingerprint", DFG.fingerprint))
        pc.compile_job_stats(job, memo=ProbeMemo())
        assert calls == {"kernel": 1, "cgra": 1, "fingerprint": 1}

    def test_key_digest_shape(self):
        key = job_key(CompileJob("sor", 4, 4))
        assert len(key.digest) == 64

    def test_one_address_holds_one_byte_string(self):
        """A job's ``seed`` only derives the default mapper configuration:
        two jobs with the same configuration share a content address, so
        their artifacts must be the same bytes (the stored ``seed`` is the
        mapper's, not the job field an explicit ``mapper`` overrides)."""
        explicit = CompileJob("sor", 4, 4, mapper=MapperConfig(seed=3, attempts_per_ii=4))
        derived = CompileJob("sor", 4, 4, seed=3)
        assert job_key(explicit).digest == job_key(derived).digest
        a, _ = compile_job(explicit)
        b, _ = compile_job(derived)
        assert a.seed == b.seed == 3
        assert a.to_json() == b.to_json()


# ------------------------------------------------------- round-trip (property)

_hex = st.text("0123456789abcdef", min_size=16, max_size=16)
_coords = st.tuples(
    st.integers(0, 7), st.integers(0, 7), st.integers(0, 63)
)


def _artifacts():
    placements = st.lists(
        st.tuples(st.integers(0, 99), st.integers(0, 7), st.integers(0, 7),
                  st.integers(0, 63)),
        max_size=8,
        unique_by=lambda p: p[0],
    ).map(lambda ps: tuple(sorted(ps)))
    routes = st.lists(
        st.tuples(
            st.integers(0, 99),
            st.lists(_coords, max_size=4).map(tuple),
            st.one_of(st.none(), _coords),
        ),
        max_size=8,
        unique_by=lambda r: r[0],
    ).map(lambda rs: tuple(sorted(rs, key=lambda r: r[0])))
    steady = st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 100), st.integers(1, 8)),
        max_size=8,
        unique_by=lambda s: s[0],
    ).map(lambda ss: tuple(sorted(ss)))
    return st.builds(
        CompiledKernel,
        kernel=st.sampled_from(["sor", "laplace", "fft", "synthetic"]),
        rows=st.integers(2, 8),
        cols=st.integers(2, 8),
        rf_depth=st.integers(1, 32),
        mem_ports_per_row=st.integers(1, 4),
        page_shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        layout_wrap=st.booleans(),
        seed=st.integers(0, 2**31),
        dfg_fp=_hex,
        arch_fp=_hex,
        mapper_fp=_hex,
        ii_base=st.integers(1, 64),
        unmappable=st.booleans(),
        ii_paged=st.integers(0, 64),
        pages_used=st.integers(0, 16),
        wrap_used=st.booleans(),
        placements=placements,
        routes=routes,
        steady_ii=steady,
    ).filter(lambda a: a.unmappable or min(a.ii_paged, a.pages_used) >= 1)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(_artifacts())
    def test_serialize_deserialize_lossless(self, artifact):
        back = CompiledKernel.from_json_dict(artifact.to_json_dict())
        assert back == artifact
        # and re-serialization is byte-identical (canonical form)
        assert back.to_json() == artifact.to_json()

    def test_real_artifact_roundtrip(self):
        artifact, _ = compile_job(CompileJob("sor", 4, 4))
        back = CompiledKernel.from_json_dict(artifact.to_json_dict())
        assert back == artifact
        assert back.steady_table() == artifact.steady_table()
        assert back.profile() == artifact.profile()


# ---------------------------------------------------------- cache correctness


class TestCacheCorrectness:
    def test_cold_equals_warm(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        cold = compile_many([job], store=store)[0]
        warm = compile_many([job], store=store)[0]
        assert cold == warm
        assert cold.to_json() == warm.to_json()
        assert store.misses == 1 and store.hits == 1

    def test_warm_run_invokes_no_mapper(self, tmp_path, monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        compile_many([job], store=store)
        # a warm run must not call the mapper at all
        import repro.pipeline.compile as pc

        def boom(*a, **k):  # pragma: no cover - would signal a stale-cache bug
            raise AssertionError("mapper invoked on warm cache")

        monkeypatch.setattr(pc, "compile_job", boom)
        warm = compile_many([job], store=store)
        assert warm[0] is not None
        assert store.misses == 1  # unchanged

    def test_mutation_invalidates(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        base = CompileJob("sor", 4, 4)
        compile_many([base], store=store)
        for other in (
            CompileJob("laplace", 4, 4),   # different DFG
            CompileJob("sor", 6, 4),       # different arch
            CompileJob("sor", 4, 2),       # different page shape
            CompileJob("sor", 4, 4, seed=3),  # different mapper config
        ):
            assert store.get(job_key(other)) is None, other
        assert store.hits == 0

    def test_no_stale_hit_on_key_mismatch(self, tmp_path, caplog):
        # a file whose content disagrees with its address must be discarded
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        artifact = compile_many([job], store=store)[0]
        wrong = ArtifactKey("0" * 16, artifact.arch_fp, artifact.mapper_fp)
        path = store.path_for(wrong)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(artifact.to_json())
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert store.get(wrong) is None
        assert any("does not match its address" in r.message for r in caplog.records)

    def test_put_under_a_file_root_returns_none(self, tmp_path, caplog):
        """A failed write is best effort: under a root that is a file the
        temp file cannot even be unlinked, and the put still returns None
        after logging why, raising nothing."""
        root = tmp_path / "root"
        root.write_text("")
        artifact, _ = compile_job(CompileJob("sor", 4, 4))
        with caplog.at_level("WARNING", logger="repro.pipeline.store"):
            assert ArtifactStore(root).put(artifact) is None
        assert any("could not persist artifact" in r.message for r in caplog.records)

    def test_profile_steady_table_preserved(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        artifact = compile_many([CompileJob("sor", 4, 4)], store=store)[0]
        prof = artifact.profile()
        for m, num, den in artifact.steady_ii:
            assert prof.steady_state_ii_of(m) == Fraction(num, den)

    def test_materialize_matches_fingerprint(self):
        artifact, _ = compile_job(CompileJob("sor", 4, 4))
        paged = artifact.materialize(get_kernel("sor").build())
        assert paged.ii == artifact.ii_paged
        assert paged.pages_used == artifact.pages_used
        from repro.util.errors import ArtifactError

        with pytest.raises(ArtifactError):
            artifact.materialize(get_kernel("laplace").build())


# ------------------------------------------------------------ parallel fan-out


class TestParallelFanout:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_workers_match_serial_byte_for_byte(self, tmp_path, workers):
        # whole jobs compile in spawned worker processes and come back
        # pickled; the artifacts must be byte-identical to the inline batch
        jobs = [CompileJob(k, 4, 4) for k in ("sor", "laplace", "wavelet")]
        serial = compile_many(jobs, store=ArtifactStore(tmp_path / "s"), workers=1)
        par = compile_many(
            jobs, store=ArtifactStore(tmp_path / "p"), workers=workers
        )
        assert [a.to_json() for a in serial] == [a.to_json() for a in par]

    def test_duplicate_jobs_compiled_once(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        job = CompileJob("sor", 4, 4)
        out = compile_many([job, job, job], store=store)
        assert len(out) == 3
        assert out[0] == out[1] == out[2]
        assert store.misses == 1 and store.puts == 1

    def test_a_serial_batch_shares_one_memo_and_a_pooled_one_none(self, monkeypatch):
        """The serial path hands every miss of a call the same memo, a new
        one per call; the worker entry point of the pooled path hands none."""
        import repro.pipeline.compile as pc

        seen = []
        real = pc.compile_job

        def recording(job, **kwargs):
            seen.append(kwargs.get("memo"))
            return real(job, **kwargs)

        monkeypatch.setattr(pc, "compile_job", recording)
        jobs = [CompileJob("sor", 4, ps, seed=seed) for ps in (2, 4) for seed in (0, 1)]
        first = compile_many(jobs)
        assert seen[0] is not None and len(set(map(id, seen))) == 1
        assert seen[0].stats()["shared"] > 0
        compile_many(jobs[:1])
        assert seen[4] is not None and seen[4] is not seen[0]
        pc._job_outcome_pooled(jobs[0])
        assert seen[5] is None
        assert [a.to_json() for a in first] == [real(job)[0].to_json() for job in jobs]

    def test_compile_time_counted(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        compile_many([CompileJob("sor", 4, 4)], store=store)
        assert store.compile_seconds > 0
        warm_before = store.compile_seconds
        compile_many([CompileJob("sor", 4, 4)], store=store)
        assert store.compile_seconds == warm_before  # hits cost nothing


# ------------------------------------------------------- store thread safety


class TestStoreConcurrency:
    def test_concurrent_same_key_puts(self, tmp_path):
        """Threads persisting the same key race only on the final atomic
        replace: unique temp names mean no thread can clobber another's
        half-written file, every put succeeds, and the stored artifact
        stays readable throughout."""
        import threading

        store = ArtifactStore(tmp_path / "store")
        artifact = compile_many([CompileJob("sor", 4, 4)])[0]
        n_threads, per_thread = 8, 5
        barrier = threading.Barrier(n_threads)
        failures: list[BaseException] = []

        def hammer():
            try:
                barrier.wait()
                for _ in range(per_thread):
                    assert store.put(artifact) is not None
            except BaseException as exc:  # noqa: BLE001 - collected for assert
                failures.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert store.puts == n_threads * per_thread
        # no temp-file debris, and the artifact reads back intact
        leftovers = [p for p in (tmp_path / "store").rglob("*.tmp")]
        assert leftovers == []
        assert store.get(artifact.key) == artifact

    def test_counters_locked_under_threads(self, tmp_path):
        """hit/miss/put/compile_seconds increments never lose updates when
        hammered from concurrent threads (the PR-9 merge discipline)."""
        import threading

        store = ArtifactStore(tmp_path / "store")
        n_threads, per_thread = 8, 50
        barrier = threading.Barrier(n_threads)

        def hammer(tid: int):
            barrier.wait()
            for i in range(per_thread):
                store.note_compile_time(1.0)
                key = ArtifactKey(f"dfg-{tid}-{i}", "arch", "mapper")
                assert store.get(key) is None  # counted miss, under the lock

        threads = [
            threading.Thread(target=hammer, args=(tid,)) for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = n_threads * per_thread
        assert store.compile_seconds == float(total)
        assert store.misses == total
        assert store.stats()["misses"] == total


# ------------------------------------------------------ batch fault isolation


class TestBatchOutcomes:
    def test_failures_isolated_per_job(self, tmp_path, durations_aside):
        from repro.pipeline import CompileFailure, compile_many_outcomes
        from repro.util.errors import MappingError, WorkloadError
        from repro.util.spans import collecting

        jobs = [
            CompileJob("sor", 4, 2),
            CompileJob("no-such-kernel", 4, 2),
            CompileJob("mpeg", 4, 2),
            CompileJob("sor", 4, 2, arch="8x8-memcols"),  # preset is 8x8
        ]
        clean = compile_many([jobs[0], jobs[2]])
        records = []
        for workers in (1, 2):  # inline, then across the process boundary
            store = ArtifactStore(tmp_path / f"store-{workers}")
            with collecting() as scope:
                outcomes = compile_many_outcomes(jobs, store=store, workers=workers)
            # the jobs' records come back with their artifacts and roll up
            # into the caller's scope: what a worker did is what a serial
            # compile reports, durations aside
            records.append(durations_aside(scope))
            assert records[-1][2] == 2  # the two jobs that compile
            assert isinstance(outcomes[0], CompiledKernel)
            assert isinstance(outcomes[2], CompiledKernel)
            assert all(isinstance(outcomes[i], CompileFailure) for i in (1, 3))
            assert outcomes[1].error == "WorkloadError"
            assert outcomes[3].error == "MappingError"
            # the siblings still compiled and were stored (by this process:
            # at workers=2 the jobs ran in pool workers, the puts here)
            assert store.puts == 2
            # without a store nothing resolves keys up front, so at
            # workers=2 the failures themselves cross the process boundary,
            # class intact
            storeless = compile_many_outcomes(jobs, workers=workers)
            assert [type(storeless[i].cause) for i in (1, 3)] == [
                WorkloadError,
                MappingError,
            ]
            # compile_many surfaces the same batch as the first original
            # error (the warm store answers the good jobs: no third pool)
            with pytest.raises(WorkloadError):
                compile_many(jobs, store=store, workers=workers)
            # and the good jobs' artifacts are byte-identical to a clean batch
            for got in (outcomes, storeless):
                assert got[0].to_json() == clean[0].to_json()
                assert got[2].to_json() == clean[1].to_json()
        assert records[0] == records[1]

    @pytest.mark.parametrize(
        "job, module, passes",
        [
            (CompileJob("sor", 4, 4), "paged", 0),  # the chain ladder's winner
            (CompileJob("sor", 4, 4), "paged", 1),  # the page-need prefix's
            (CompileJob("sor", 8, 4, arch="8x8-memcols", backend="hier"), "hier", 0),
        ],
        ids=["flat-main", "flat-shrink", "hier-main"],
    )
    def test_validator_rejection_is_a_failure_not_an_unmappable_artifact(
        self, tmp_path, monkeypatch, job, module, passes
    ):
        """Only an exhausted ladder is an ``unmappable`` artifact or a
        skipped page-need prefix; a mapping the validator rejects — here
        after *passes* good verdicts — is the job's failure, and nothing
        is stored for it."""
        import importlib

        from repro.pipeline import CompileFailure, compile_many_outcomes
        from repro.pipeline.compile import compile_job_stats
        from repro.util.errors import LadderExhausted, MappingError

        target = importlib.import_module(f"repro.compiler.{module}")
        real, calls = target.validate_mapping, []

        def rejecting(mapping, layout):
            calls.append(mapping.ii)
            if len(calls) > passes:
                raise MappingError("injected validator rejection")
            real(mapping, layout)

        monkeypatch.setattr(target, "validate_mapping", rejecting)
        with pytest.raises(MappingError, match="injected") as caught:
            compile_job_stats(job)
        assert not isinstance(caught.value, LadderExhausted)
        assert len(calls) == passes + 1
        store = ArtifactStore(tmp_path / "store")
        (outcome,) = compile_many_outcomes([job], store=store)
        assert isinstance(outcome, CompileFailure)
        assert (outcome.error, store.puts) == ("MappingError", 0)

    def test_a_base_ladder_miss_keeps_the_paged_mapping(self, tmp_path, monkeypatch):
        """When the whole-array ladder is exhausted but the paged ladder
        maps the kernel, that mapping is a whole-array mapping too (a
        subset of the PEs and links): the job stores it with its II as
        ``ii_base`` instead of failing, and the artifact audits clean.
        Fuzz draw 11 of ``tests/test_fuzz_differential.py``: the base
        ladder gives up at II 10, the paged one maps at II 6."""
        import repro.kernels
        import repro.pipeline.compile as compile_mod
        from repro.analysis.audit import audit_file
        from repro.analysis.findings import Severity
        from repro.dfg.random_dfg import random_dfg

        drawn = SimpleNamespace(build=lambda: random_dfg(11, n_ops=8))
        monkeypatch.setattr(compile_mod, "get_kernel", lambda name: drawn)
        monkeypatch.setattr(repro.kernels, "get_kernel", lambda name: drawn)
        config = MapperConfig(max_ii=10, attempts_per_ii=2)
        job = CompileJob("drawn", 4, 4, mapper=config, arch="4x4-memcols")
        artifact, stats = compile_mod.compile_job_stats(job)
        base, chain, *_ = stats.ladders
        assert base.winner is None and chain.winner is not None
        assert not artifact.unmappable
        assert artifact.ii_base == artifact.ii_paged == 6
        path = ArtifactStore(tmp_path).put(artifact)
        entry = audit_file(path, path.relative_to(tmp_path).as_posix())
        assert not [f for f in entry.findings if f.severity is Severity.ERROR]

    def test_an_illegal_base_mapping_is_refused(self, tmp_path, monkeypatch):
        """Only the base mapping's II is stored, so it is validated before:
        laplace's whole-array mapping planted one II low (placements and
        routes kept) fails ``validate_mapping``, the job fails, and nothing
        is stored."""
        import dataclasses

        import repro.pipeline.compile as compile_mod
        from repro.pipeline import CompileFailure, compile_many_outcomes
        from repro.util.errors import LadderExhausted, ReproError

        real = compile_mod.map_dfg

        def one_ii_low(*args, **kwargs):
            mapping = real(*args, **kwargs)
            return dataclasses.replace(mapping, ii=mapping.ii - 1)

        monkeypatch.setattr(compile_mod, "map_dfg", one_ii_low)
        job = CompileJob("laplace", 4, 2)  # base II 2
        with pytest.raises(ReproError) as caught:
            compile_mod.compile_job_stats(job)
        assert not isinstance(caught.value, LadderExhausted)
        store = ArtifactStore(tmp_path / "store")
        (outcome,) = compile_many_outcomes([job], store=store)
        assert isinstance(outcome, CompileFailure) and store.puts == 0

    def test_unpicklable_cause_is_dropped_in_the_worker(self, monkeypatch):
        """A pool worker ships a failure whose exception cannot make the
        pickle round trip as class name + message only."""
        import repro.pipeline.compile as compile_mod
        from repro.util.errors import MappingError

        class Local(Exception):  # local classes do not pickle
            pass

        def boom(job, **kwargs):
            raise Local("nope")

        monkeypatch.setattr(compile_mod, "compile_job", boom)
        job = CompileJob("sor", 4, 2)
        assert isinstance(compile_mod._job_outcome(job).cause, Local)
        failure = compile_mod._job_outcome_pooled(job)
        assert (failure.error, failure.message, failure.cause) == (
            "Local", "nope", None,
        )
        with pytest.raises(MappingError, match="Local: nope"):
            failure.raise_()

    @pytest.mark.parametrize("jobs, workers", [(1, 4), (3, 1)])
    def test_no_pool_for_one_miss_or_one_worker(self, monkeypatch, jobs, workers):
        """The pool class is imported where a pool is spawned, so it is
        patched where that import finds it."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was created")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        batch = [CompileJob(k, 4, 4) for k in ("sor", "mpeg", "gsr")[:jobs]]
        assert len(compile_many(batch, workers=workers)) == jobs
