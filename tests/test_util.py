"""Unit tests for repro.util: RNG determinism, table formatting, errors."""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro.util.errors import ReproError, SimulationError
from repro.util.fingerprint import sha256
from repro.util.rng import PCG64Stream, derive_seed, make_rng
from repro.util.tables import format_table


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).integers(0, 1 << 30, 10)
        b = make_rng(42).integers(0, 1 << 30, 10)
        assert np.array_equal(a, b)

    def test_make_rng_different_seeds_differ(self):
        a = make_rng(1).integers(0, 1 << 30, 10)
        b = make_rng(2).integers(0, 1 << 30, 10)
        assert not np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        g = make_rng(7)
        assert make_rng(g) is g

    def test_derive_seed_stable(self):
        assert derive_seed(5, "fig8", 3) == derive_seed(5, "fig8", 3)

    def test_derive_seed_streams_independent(self):
        assert derive_seed(5, "a") != derive_seed(5, "b")
        assert derive_seed(5, 1) != derive_seed(5, 2)


class TestPCG64Stream:
    """The mapper's perturbation stream is numpy's ``default_rng(seed).
    integers(n)``, draw for draw: every stored artifact's bytes depend on
    it, and numpy is the reference it is checked against."""

    #: 2 000 draws per seed, the bounds interleaved
    BOUNDS = [(1, 2, 3, 7, 30, 2**31, 2**32)[k % 7] for k in range(2000)]

    @pytest.mark.parametrize(
        "seeds",
        [range(0, 32), range(32, 64), (2**32, 2**64 + 123, 2**130 + 7)],
        ids=["0-31", "32-63", "wide"],
    )
    def test_draws_equal_numpy(self, seeds):
        for seed in seeds:
            ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
            got = [ours.integers(n) for n in self.BOUNDS]
            assert got == [int(ref.integers(n)) for n in self.BOUNDS], seed

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError, match="seed"):
            PCG64Stream(-1)
        with pytest.raises(ValueError, match="bound"):
            PCG64Stream(0).integers(0)
        with pytest.raises(ValueError, match="bound"):
            PCG64Stream(0).integers(2**32 + 1)


NO_NUMPY_CHILD = """
import asyncio, sys, tempfile
from pathlib import Path

from repro.analysis.audit import audit_file
from repro.pipeline import ArtifactStore, CompileJob
from repro.pipeline.compile import compile_job_stats
from repro.serve.protocol import CompileRequest
from repro.serve.service import CompileService, ServiceConfig

art, stats = compile_job_stats(CompileJob("compress", 4, 2, seed=0))
perturbed = max(row[1] for ladder in stats.ladders for row in ladder.timeline)
with tempfile.TemporaryDirectory() as tmp:
    store = ArtifactStore(tmp)
    path = Path(store.put(art))
    audit = audit_file(path, path.relative_to(tmp).as_posix())

    async def serve():
        config = ServiceConfig(store_root=str(Path(tmp) / "served"), workers=1)
        request = {"kernel": "compress", "size": 4, "page_size": 2}
        async with CompileService(config) as service:
            return [
                await service.submit(CompileRequest.from_dict(request))
                for _ in range(2)
            ]

    served = asyncio.run(serve())
    print(perturbed, audit.status, *(r.source for r in served),
          all(r.body == path.read_bytes() for r in served),
          *(m in sys.modules for m in ("numpy", "_hashlib", "multiprocessing")))
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """*code* run in a fresh interpreter that imports this ``repro``."""
    src = str(Path(repro.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_compile_audit_and_serve_never_import_numpy():
    """Importing the entry points without numpy is not enough: a lazy
    import could still fire at runtime.  A fresh interpreter compiles a
    job whose ladder reaches a perturbed attempt, audits the artifact and
    serves it at ``workers=1`` (a miss, then a hit); numpy is still not
    loaded, nor OpenSSL's ``_hashlib``, nor the process-pool stack."""
    child = run_fresh(NO_NUMPY_CHILD)
    assert child.returncode == 0, child.stderr
    perturbed, status, first, second, same, *loaded = child.stdout.split()
    assert int(perturbed) >= 3  # compress 4x4 ps2 wins its chain at attempt 3
    assert (status, first, second, same) == ("ok", "compiled", "hit", "True")
    assert loaded == ["False", "False", "False"]  # numpy, _hashlib, multiprocessing


SIM_CHILD = """
import sys

from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.workload import generate_trace

profiles = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=2),
    "slow": KernelProfile("slow", ii_base=3, ii_paged=4, pages_used=4),
}
trace = generate_trace(
    40, 0.75, sorted(profiles), {"fast": 1, "slow": 3}, seed=3,
    arrival_model="bursty", mean_total_work=300,
)
result = simulate_system(trace, SystemConfig(n_pages=4, profiles=profiles), "multithreaded")
print(result.kernel_invocations,
      *sorted(m for m in sys.modules if m.split(".")[:2] in (
          ["repro", "compiler"], ["repro", "pipeline"],
          ["repro", "analysis"], ["repro", "serve"])))
"""


def test_system_simulator_runs_without_the_mapper():
    """A system run loads the simulator, the runtime and the policies: a
    fresh interpreter simulates a small trace, and no module of the
    mapper, the compile pipeline, the auditor or the service is loaded."""
    child = run_fresh(SIM_CHILD)
    assert child.returncode == 0, child.stderr
    invocations, *loaded = child.stdout.split()
    assert int(invocations) > 0
    assert loaded == []


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
@example(b"")
def test_sha256_is_hashlibs(blob):
    """The fingerprints' built-in ``sha256`` digests like ``hashlib``'s,
    from the empty blob to several 64-byte blocks."""
    assert sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


class TestTables:
    def test_format_table_basic(self):
        s = format_table(["name", "ii"], [["mpeg", 3], ["sor", 4]])
        lines = s.splitlines()
        assert "name" in lines[0] and "ii" in lines[0]
        assert "mpeg" in lines[2]
        assert len(lines) == 4

    def test_format_table_arity_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [["only-one"]])

    def test_format_table_title(self):
        s = format_table(["a"], [[1]], title="T")
        assert s.splitlines()[0] == "T"

class TestErrors:
    def test_hierarchy(self):
        assert issubclass(SimulationError, ReproError)
        with pytest.raises(ReproError):
            raise SimulationError("boom")
