"""Tests of the benchmark suite: every kernel's DFG must be well-formed and
agree with its independent golden model under the reference interpreter,
across seeds and trip counts."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.isa import Opcode
from repro.dfg.analysis import rec_mii
from repro.dfg.random_dfg import random_arrays, random_dfg
from repro.dfg.validate import validate_dfg
from repro.kernels import SUITE, bind_memory, get_kernel, kernel_names
from repro.sim.reference import run_reference
from repro.util.errors import WorkloadError

ALL = kernel_names()


class TestSuiteRegistry:
    def test_eleven_benchmarks(self):
        """§VII-A: a set of 11 benchmarks."""
        assert len(SUITE) == 11

    def test_papers_names_present(self):
        for name in [
            "mpeg",
            "yuv2rgb",
            "sor",
            "compress",
            "gsr",
            "laplace",
            "lowpass",
            "swim",
            "sobel",
            "wavelet",
        ]:
            assert name in SUITE

    def test_unknown_kernel_raises(self):
        with pytest.raises(WorkloadError):
            get_kernel("quicksort")

    def test_descriptions_nonempty(self):
        for spec in SUITE.values():
            assert spec.description


@pytest.mark.parametrize("name", ALL)
class TestEveryKernel:
    def test_dfg_well_formed(self, name):
        validate_dfg(get_kernel(name).build())

    def test_matches_golden(self, name):
        spec = get_kernel(name)
        dfg, arrays, expected = spec.fresh(seed=11, trip=33)
        got = run_reference(dfg, {k: v.copy() for k, v in arrays.items()}, 33)
        for arr in expected:
            assert np.array_equal(got[arr], expected[arr]), arr

    def test_deterministic_per_seed(self, name):
        spec = get_kernel(name)
        _, a1, e1 = spec.fresh(seed=5, trip=10)
        _, a2, e2 = spec.fresh(seed=5, trip=10)
        for k in a1:
            assert np.array_equal(a1[k], a2[k])
        for k in e1:
            assert np.array_equal(e1[k], e2[k])

    def test_different_seeds_differ(self, name):
        spec = get_kernel(name)
        _, a1, _ = spec.fresh(seed=1, trip=32)
        _, a2, _ = spec.fresh(seed=2, trip=32)
        assert any(not np.array_equal(a1[k], a2[k]) for k in a1)

    def test_has_memory_traffic(self, name):
        dfg = get_kernel(name).build()
        opcodes = {op.opcode for op in dfg.ops.values()}
        assert Opcode.LOAD in opcodes and Opcode.STORE in opcodes

    def test_bind_memory_layout(self, name):
        spec = get_kernel(name)
        _, arrays, _ = spec.fresh(seed=0, trip=8)
        mem = bind_memory(arrays)
        for aname, data in arrays.items():
            assert np.array_equal(mem.read_array(aname), data)


class TestRecurrenceKernels:
    """§IV/Fig. 3: the recurrence kernels have a size-independent RecMII."""

    @pytest.mark.parametrize("name,expected", [("sor", 4), ("compress", 4), ("gsr", 4)])
    def test_rec_mii(self, name, expected):
        assert rec_mii(get_kernel(name).build()) == expected

    @pytest.mark.parametrize("name", ["mpeg", "laplace", "lowpass", "wavelet", "fft"])
    def test_acyclic_kernels(self, name):
        assert rec_mii(get_kernel(name).build()) == 1


@given(seed=st.integers(0, 2**16), trip=st.integers(1, 40))
@settings(max_examples=25, deadline=None)
def test_property_reference_matches_golden_all_kernels(seed, trip):
    """The DFG encoding and the golden model agree for arbitrary seeds and
    trip counts (spot-checked on a rotating kernel choice)."""
    name = ALL[seed % len(ALL)]
    spec = get_kernel(name)
    dfg, arrays, expected = spec.fresh(seed=seed, trip=trip)
    got = run_reference(dfg, {k: v.copy() for k, v in arrays.items()}, trip)
    for arr in expected:
        assert np.array_equal(got[arr], expected[arr]), (name, arr)


#: SHA-256 digests of every kernel's ``fresh(seed, trip)`` (inputs and
#: golden outputs) and of random DFGs with their arrays, recorded when both
#: were still drawn by numpy's ``default_rng`` and computed in numpy: the
#: pure-Python draws and goldens reproduce them value for value.
PINNED_KERNELS = "cfa6b44a86d0dcd79413e9d529394361851088854d3e1b0b0a8c8438ee3a9899"
PINNED_RANDOM_DFGS = "b1526eada5bae0d6e72ebd797cdf551979636bbe725b5da0666125fe6fd56a9f"


def test_kernel_inputs_and_goldens_are_pinned():
    """Seeds 0-31 at trips 1, 8, 33 and 64, for all 11 kernels."""
    h = hashlib.sha256()
    for name in sorted(SUITE):
        for seed in range(32):
            for trip in (1, 8, 33, 64):
                _, arrays, expected = SUITE[name].fresh(seed, trip)
                h.update(json.dumps([arrays, expected], sort_keys=True).encode())
    assert h.hexdigest() == PINNED_KERNELS


def test_random_dfgs_and_arrays_are_pinned():
    """The fuzz seeds: 0-512 and every 97th up to 10 000 (the hypothesis
    range), each DFG's fingerprint and its arrays at trips 4, 9 and 12."""
    h = hashlib.sha256()
    for seed in [*range(513), *range(513, 10_001, 97)]:
        dfg = random_dfg(seed, n_ops=4 + seed % 13, n_outputs=1 + seed % 2)
        h.update(dfg.fingerprint().encode())
        for trip in (4, 9, 12):
            arrays = random_arrays(dfg, seed, trip)
            h.update(json.dumps(arrays, sort_keys=True).encode())
    assert h.hexdigest() == PINNED_RANDOM_DFGS
