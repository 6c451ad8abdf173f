"""Unit tests for repro.util: RNG determinism, table formatting, errors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.util.errors import ReproError, SimulationError
from repro.util.rng import derive_seed, make_rng
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
