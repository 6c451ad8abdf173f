"""Unit tests for repro.util: RNG determinism, table formatting, errors."""

from __future__ import annotations

import ast
import hashlib
import math
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
from repro.util.ziggurat import KE


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
        for lam in (-1.0, math.nan, 1e19):
            with pytest.raises(ValueError, match="lam"):
                PCG64Stream(0).poisson(lam)
        with pytest.raises(ValueError, match="seed"):
            derive_seed(-1, "a")

    @pytest.mark.parametrize("seed", [0, 7, 2**40 + 3])
    def test_continuous_and_poisson_draws_equal_numpy(self, seed):
        """Each draw the trace generators make, in runs: PTRS at and above
        ``lam = 10``, the product of uniforms below it, and ``lam == 0``,
        which returns 0 without a draw."""
        ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
        assert [ours.random() for _ in range(300)] == ref.random(300).tolist()
        got = [ours.exponential(2.5) for _ in range(1000)]
        assert got == ref.exponential(2.5, 1000).tolist()
        for lam in (15, 10.0, 1e6, 3.5, 9.99, 0.0):
            got = [ours.poisson(lam) for _ in range(400)]
            assert got == ref.poisson(lam, 400).tolist(), lam
        assert ours.integers(5) == ref.integers(5)

    @pytest.mark.parametrize("seed", [0, 1, 99, 2**40 + 3])
    def test_int_list_equals_numpy_array_draws(self, seed):
        """``int_list(low, high, size)`` is numpy's ``integers(low, high,
        size)`` (int64), on the kernels' and the random DFGs' ranges,
        interleaved with the scalar draws ``random_dfg`` makes."""
        ours, ref = PCG64Stream(seed), np.random.default_rng(seed)
        shapes = [(0, 256, 67), (-128, 128, 33), (16, 236, 1), (-64, 64, 130),
                  (-8, 8, 2), (16, 241, 0)]
        for low, high, size in shapes:
            assert ours.int_list(low, high, size) == ref.integers(low, high, size).tolist()
            assert ours.random() == ref.random()
            assert ours.integers(9) == ref.integers(9)

    def test_interleaved_draws_equal_numpy(self):
        """A 64-bit draw leaves the spare 32-bit half of an earlier
        ``integers`` draw for the next one, as numpy's bit generator does."""
        draws = [
            lambda g: int(g.integers(7)), lambda g: float(g.random()),
            lambda g: float(g.exponential(3.0)), lambda g: int(g.poisson(16)),
            lambda g: int(g.integers(2**32)), lambda g: int(g.poisson(0.7)),
        ]
        order = [(k * 7 + k // 5) % len(draws) for k in range(600)]
        ours, ref = PCG64Stream(11), np.random.default_rng(11)
        assert [draws[k](ours) for k in order] == [draws[k](ref) for k in order]

    def test_every_ziggurat_layer_and_branch_equals_numpy(self):
        """Both streams are started at a state whose next 64-bit output is
        chosen, so every layer is drawn on its fast path (below ``KE``,
        absent only in layer 1, whose bound is 0) and on its unlikely path
        (at ``KE`` and at the top of the 53 bits: layer 0's tail, the
        ``exp(-x)`` test elsewhere), and the draws after it agree too."""
        covered = set()
        for idx in range(256):
            for bits in (0, KE[idx] - 1, KE[idx], (1 << 53) - 1):
                if bits < 0:
                    continue
                out = bits << 11 | idx << 3 | (idx & 7)
                ours, ref = _streams_emitting(out, hi=idx * 0x9E3779B97F4A7C15)
                got = [ours.exponential(), ours.random(), ours.exponential()]
                assert got == [ref.exponential(), ref.random(), ref.exponential()]
                covered.add((idx, "fast" if bits < KE[idx] else "unlikely"))
        assert covered == {(i, "unlikely") for i in range(256)} | {
            (i, "fast") for i in range(256) if i != 1
        }

    def test_ptrs_edge_draws_equal_numpy(self):
        """The uniforms PTRS can draw that C and Python treat apart, each
        set up as the next outputs of both streams: U = -0.5 (C floors
        ``-inf`` to a negative ``k``, rejected), V = 0 (C's ``log(0)`` is
        ``-inf``, accepted), and, at a mean of 1e12, U = 0.5 - 2**-53 with
        V = 0 (``k`` past ``2**63``, which C casts to a negative, rejected)."""
        edges = [(10.0, 0), (15.0, 0), (400.0, 0),
                 (10.0, 0xF5 << 56, 0), (15.0, 0xF5 << 56, 0),
                 (400.0, 0xF5 << 56, 0), (1e12, ((1 << 53) - 1) << 11, 0)]
        for lam, *outs in edges:
            ours, ref = _streams_emitting(*outs)
            assert ours.poisson(lam) == ref.poisson(lam), (lam, outs)
            assert ours.random() == ref.random()

    def test_derive_seed_equals_seed_sequence(self):
        """``SeedSequence(seed, spawn_key=labels).generate_state(1,
        uint64)``: a spawn key starts after the seed words zero-padded to
        the pool, and integer labels are taken modulo ``2**32``."""
        label_sets = [(), (0,), ("fig9", 4, 2, 750, 8, 3), (-1, 2**32 + 5, 2**40),
                      ("sim-fuzz", 17), ("é",), tuple(range(9))]
        for seed in (0, 1, 5, 2**32 - 1, 2**32, 2**64 + 123, 2**130 + 7):
            for labels in label_sets:
                keys = tuple(_fnv1a(x) if isinstance(x, str) else x & 0xFFFFFFFF
                             for x in labels)
                ref = np.random.SeedSequence(entropy=seed, spawn_key=keys)
                assert derive_seed(seed, *labels) == int(
                    ref.generate_state(1, dtype=np.uint64)[0]
                ), (seed, labels)


def _fnv1a(label: str) -> int:
    acc = 2166136261
    for ch in label.encode("utf-8"):
        acc = ((acc ^ ch) * 16777619) & 0xFFFFFFFF
    return acc


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64, _M128 = (1 << 64) - 1, (1 << 128) - 1


def _emitting_state(out: int, hi: int) -> int:
    """A PCG64 state whose XSL-RR output is *out*; *hi* is its high half,
    whose top six bits are the rotation."""
    rot = hi >> 58
    lo = ((out << rot | out >> (64 - rot)) & _M64) ^ hi
    return hi << 64 | lo


def _streams_emitting(*outs: int, hi: int = 0x5851F42D4C957F2D):
    """A :class:`PCG64Stream` and a numpy generator in the same state, whose
    next one or two 64-bit outputs are *outs*."""
    hi &= _M64
    first = _emitting_state(outs[0], hi)
    inc = 0xDA3E39CB94B95BDB_14057B7EF767814F  # any odd increment
    if len(outs) == 2:  # the increment that steps from the first to the second
        second = _emitting_state(outs[1], hi)
        inc = (second - first * _PCG_MULT) & _M128
        if not inc & 1:  # flip the low bit of the second state's halves
            second = _emitting_state(outs[1], hi ^ 1)
            inc = (second - first * _PCG_MULT) & _M128
    state = (first - inc) * pow(_PCG_MULT, -1, 1 << 128) & _M128
    ours = PCG64Stream(0)
    ours._state, ours._inc = state, inc
    ref = np.random.Generator(np.random.PCG64())
    ref.bit_generator.state = {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }
    return ours, ref


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

from repro.sim.oracle import verify_system
from repro.sim.system import KernelProfile, SystemConfig, simulate_system
from repro.sim.workload import generate_trace, generate_workload
from repro.util.rng import derive_seed

profiles = {
    "fast": KernelProfile("fast", ii_base=1, ii_paged=1, pages_used=2),
    "slow": KernelProfile("slow", ii_base=3, ii_paged=4, pages_used=4),
}
nominal = {"fast": 1, "slow": 3}
config = SystemConfig(n_pages=4, profiles=profiles)
trace = generate_trace(
    40, 0.75, sorted(profiles), nominal, seed=derive_seed(3, "sim-child"),
    arrival_model="bursty", burst_size=12, mean_total_work=300,
)
result = simulate_system(trace, config, "multithreaded")
workload = generate_workload(
    4, 0.5, sorted(profiles), nominal, seed=5, mean_total_work=400,
    mean_arrival_gap=30,
)
verify_system(workload, config, "multithreaded")
print(result.kernel_invocations, "numpy" in sys.modules,
      *sorted(m for m in sys.modules if m.split(".")[:2] in (
          ["repro", "compiler"], ["repro", "pipeline"],
          ["repro", "analysis"], ["repro", "serve"])))
"""


def test_system_simulator_runs_without_the_mapper():
    """A system run loads the simulator, the runtime and the policies: a
    fresh interpreter draws a bursty trace (exponential, PTRS Poisson and
    class draws) and a staggered workload, simulates the one and verifies
    the other against the oracle; neither numpy nor any module of the
    mapper, the compile pipeline, the auditor or the service is loaded."""
    child = run_fresh(SIM_CHILD)
    assert child.returncode == 0, child.stderr
    invocations, numpy_loaded, *loaded = child.stdout.split()
    assert int(invocations) > 0
    assert numpy_loaded == "False"
    assert loaded == []


FOLD_CHILD = """
import sys

sys.modules["numpy"] = None  # any import of numpy now raises

from pathlib import Path

import repro
from repro.compiler.constraints import paged_bus_key
from repro.core.pagemaster import PageMaster
from repro.kernels import bind_memory, get_kernel
from repro.pipeline.compile import CompileJob, job_key
from repro.pipeline.store import ArtifactStore
from repro.sim.cgra_sim import simulate
from repro.sim.reference import run_reference
from repro.sim.retarget import required_batches, retarget_firings

trip = 16
committed = ArtifactStore(Path(repro.__file__).resolve().parents[2] / ".repro_artifacts")
artifact = committed.get(job_key(CompileJob("mpeg", 4, 2)))
dfg, arrays, expected = get_kernel("mpeg").fresh(seed=3, trip=trip)
reference = run_reference(dfg, {k: list(v) for k, v in arrays.items()}, trip)
paged = artifact.materialize(dfg)
batches = required_batches(paged.mapping, trip)
correct = []
for m in range(paged.pages_used, 0, -1):
    memory = bind_memory(arrays)
    placement = PageMaster(
        paged.layout.num_pages, paged.ii, m, wrap_used=paged.wrap_used
    ).place(batches=batches)
    firings = retarget_firings(paged, placement, list(range(m)), memory, trip)
    simulate(firings, paged.mapping.cgra, memory, bus_key=paged_bus_key(paged.layout))
    correct.append(memory.snapshot() == reference == expected)
print(len(correct), all(correct))
"""


def test_fold_path_runs_without_numpy():
    """The paper's runtime path, in a fresh interpreter where importing
    numpy raises: a committed artifact is materialized, folded onto every
    M by PageMaster, retargeted and simulated, and each memory equals the
    reference interpreter's arrays and the kernel's golden."""
    child = run_fresh(FOLD_CHILD)
    assert child.returncode == 0, child.stderr
    folds, correct = child.stdout.split()
    assert int(folds) >= 2 and correct == "True"


def test_no_numpy_import_in_the_program():
    """No module under ``src/`` or ``examples/`` imports numpy, but
    ``make_rng``'s body, which only the ``perf/`` harness calls."""
    root = Path(repro.__file__).resolve().parents[2]
    found = []

    def visit(node, path, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append((path, function, child.lineno))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, path, child.name if named else function)

    for path in [*(root / "src").rglob("*.py"), *(root / "examples").glob("*.py")]:
        visit(ast.parse(path.read_text()), path.relative_to(root).as_posix(), None)
    assert [where[:2] for where in found] == [("src/repro/util/rng.py", "make_rng")], found


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
