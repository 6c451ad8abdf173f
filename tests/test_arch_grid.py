"""Unit tests for the mesh interconnect, register files, memory and CGRA."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord, Interconnect
from repro.arch.memory import DataMemory
from repro.arch.register_file import RotatingRegisterFile
from repro.util.errors import ArchitectureError, SimulationError


class TestCoord:
    def test_manhattan(self):
        assert Coord(0, 0).manhattan(Coord(2, 3)) == 5
        assert Coord(1, 1).manhattan(Coord(1, 1)) == 0

    def test_ordering_row_major(self):
        assert Coord(0, 3) < Coord(1, 0)


class TestInterconnect:
    def test_corner_has_two_neighbors(self):
        ic = Interconnect(4, 4)
        assert set(ic.neighbors(Coord(0, 0))) == {Coord(0, 1), Coord(1, 0)}

    def test_interior_has_four_neighbors(self):
        ic = Interconnect(4, 4)
        assert len(ic.neighbors(Coord(1, 1))) == 4

    def test_diagonal_flavour(self):
        ic = Interconnect(4, 4, diagonal=True)
        assert Coord(1, 1) in ic.neighbors(Coord(0, 0))
        assert len(ic.neighbors(Coord(1, 1))) == 8

    def test_torus_wraps(self):
        ic = Interconnect(4, 4, torus=True)
        assert Coord(3, 0) in ic.neighbors(Coord(0, 0))
        assert Coord(0, 3) in ic.neighbors(Coord(0, 0))
        assert all(len(ic.neighbors(c)) == 4 for c in ic.coords())

    def test_self_reachable(self):
        ic = Interconnect(3, 3)
        assert Coord(1, 1) in ic.reachable_in_one(Coord(1, 1))
        assert ic.adjacent_or_same(Coord(1, 1), Coord(1, 1))

    def test_adjacency_symmetric(self):
        ic = Interconnect(5, 3)
        for a in ic.coords():
            for b in ic.coords():
                assert ic.adjacent_or_same(a, b) == ic.adjacent_or_same(b, a)

    def test_index_roundtrip(self):
        ic = Interconnect(3, 5)
        for c in ic.coords():
            assert ic.coord(ic.index(c)) == c

    def test_bad_grid_rejected(self):
        with pytest.raises(ArchitectureError):
            Interconnect(0, 4)

    def test_out_of_grid_queries_rejected(self):
        ic = Interconnect(2, 2)
        with pytest.raises(ArchitectureError):
            ic.neighbors(Coord(5, 5))
        with pytest.raises(ArchitectureError):
            ic.index(Coord(-1, 0))
        with pytest.raises(ArchitectureError):
            ic.coord(99)

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_neighbor_counts_sum(self, rows, cols):
        """Handshake lemma: directed neighbour links == 2 * mesh edges."""
        ic = Interconnect(rows, cols)
        total = sum(len(ic.neighbors(c)) for c in ic.coords())
        expected_edges = rows * (cols - 1) + cols * (rows - 1)
        assert total == 2 * expected_edges


class TestRotatingRegisterFile:
    def test_push_read(self):
        rf = RotatingRegisterFile(4)
        rf.push(0, 10)
        rf.push(2, 20)
        assert rf.read_produced_at(0) == 10
        assert rf.read_produced_at(2) == 20
        assert rf.latest() == 20

    def test_eviction_at_depth(self):
        rf = RotatingRegisterFile(2)
        for c, v in [(0, 1), (1, 2), (2, 3)]:
            rf.push(c, v)
        with pytest.raises(SimulationError):
            rf.read_produced_at(0)
        assert rf.read_produced_at(1) == 2

    def test_time_ordering_enforced(self):
        rf = RotatingRegisterFile(4)
        rf.push(5, 1)
        with pytest.raises(SimulationError):
            rf.push(5, 2)
        with pytest.raises(SimulationError):
            rf.push(3, 2)

    def test_depth_validation(self):
        with pytest.raises(SimulationError):
            RotatingRegisterFile(0)

    def test_occupancy_watermark(self):
        rf = RotatingRegisterFile(3)
        for c in range(10):
            rf.push(c, c)
        assert rf.occupancy() == 3
        assert rf.max_occupancy == 3

    def test_clear(self):
        rf = RotatingRegisterFile(3)
        rf.push(0, 1)
        rf.clear()
        assert rf.latest() is None
        rf.push(0, 2)  # time restarts after clear
        assert rf.latest() == 2

    def test_depth_is_the_count_of_entries_at_least_as_new(self):
        """The O(1) depth (a push-sequence subtraction) against its
        definition, under random pushes and reads that overflow the file;
        evicted and never-produced cycles read as absent."""
        import random

        rng = random.Random(20260930)
        for _ in range(200):
            depth = rng.randint(1, 9)
            rf = RotatingRegisterFile(depth)
            retained: list[int] = []  # the model: the newest `depth` cycles
            cycle = -1
            for _ in range(rng.randint(1, 60)):
                if retained and rng.random() < 0.4:
                    probe = rng.randint(0, cycle + 2)
                    if probe in retained:
                        newer_or_same = sum(1 for c in retained if c >= probe)
                        assert rf.depth_of(probe) == newer_or_same
                        assert rf.read_produced_at(probe) == probe * 3
                    else:
                        assert rf.depth_of(probe) == 0
                        with pytest.raises(SimulationError):
                            rf.read_produced_at(probe)
                else:
                    cycle += rng.randint(1, 3)
                    rf.push(cycle, cycle * 3)
                    retained = (retained + [cycle])[-depth:]
                    assert rf.occupancy() == len(retained)
                    assert rf.depth_of(cycle) == 1
                    assert rf.depth_of(retained[0]) == len(retained)

    @given(st.integers(1, 8), st.lists(st.integers(0, 100), min_size=1, max_size=20, unique=True))
    def test_last_depth_values_always_readable(self, depth, cycles):
        cycles = sorted(cycles)
        rf = RotatingRegisterFile(depth)
        for c in cycles:
            rf.push(c, c * 7)
        for c in cycles[-depth:]:
            assert rf.read_produced_at(c) == c * 7


class TestDataMemory:
    def test_bind_and_read(self):
        mem = DataMemory(128)
        spec = mem.bind_array("a", [1, 2, 3])
        assert spec.base == 0 and spec.length == 3
        assert mem.load(spec.base + 1) == 2

    def test_sequential_allocation(self):
        mem = DataMemory(128)
        a = mem.bind_array("a", [0] * 10)
        b = mem.bind_array("b", [0] * 5)
        assert b.base == a.base + a.length

    def test_duplicate_name_rejected(self):
        mem = DataMemory(128)
        mem.bind_array("a", [1])
        with pytest.raises(SimulationError):
            mem.bind_array("a", [2])

    def test_out_of_memory(self):
        mem = DataMemory(4)
        with pytest.raises(SimulationError):
            mem.bind_array("big", [0] * 5)

    def test_store_load_roundtrip_and_counts(self):
        mem = DataMemory(16)
        mem.store(3, -7)
        assert mem.load(3) == -7
        assert mem.store_count == 1 and mem.load_count == 1

    def test_bounds_checked(self):
        mem = DataMemory(8)
        with pytest.raises(SimulationError):
            mem.load(8)
        with pytest.raises(SimulationError):
            mem.store(-1, 0)

    def test_snapshot(self):
        mem = DataMemory(64)
        mem.bind_array("x", [5, 6])
        snap = mem.snapshot()
        assert np.array_equal(snap["x"], [5, 6])
        mem.store(0, 99)
        assert snap["x"][0] == 5  # snapshot is a copy

    def test_2d_array_rejected(self):
        mem = DataMemory(64)
        with pytest.raises(SimulationError):
            mem.bind_array("m", np.zeros((2, 2)))


class TestCGRA:
    def test_describe(self, cgra44):
        assert "4x4" in cgra44.describe()

    def test_validation(self):
        with pytest.raises(ArchitectureError):
            CGRA(0, 4)
        with pytest.raises(ArchitectureError):
            CGRA(4, 4, rf_depth=0)
        with pytest.raises(ArchitectureError):
            CGRA(4, 4, mem_ports_per_row=0)

    def test_num_pes(self):
        assert CGRA(6, 6).num_pes == 36


class TestProcessingElement:
    def test_execute_commits(self):
        from repro.arch.isa import Opcode
        from repro.arch.pe import ProcessingElement

        pe = ProcessingElement(Coord(0, 0), rf_depth=4)
        v = pe.execute(Opcode.ADD, [2, 3], None, cycle=5)
        assert v == 5
        assert pe.read_output(5) == 5
        assert pe.firings == 1

    def test_depth_accounting(self):
        from repro.arch.isa import Opcode
        from repro.arch.pe import ProcessingElement

        pe = ProcessingElement(Coord(1, 1), rf_depth=4)
        for c in range(3):
            pe.execute(Opcode.ADD, [c, 0], None, cycle=c)
        assert pe.depth_of(2) == 1  # newest
        assert pe.depth_of(0) == 3  # oldest retained

    def test_depth_of_missing_raises(self):
        from repro.arch.pe import ProcessingElement

        pe = ProcessingElement(Coord(0, 0), rf_depth=2)
        with pytest.raises(SimulationError):
            pe.depth_of(9)

    def test_rf_depth_of_absent_is_zero(self):
        rf = RotatingRegisterFile(2)
        assert rf.depth_of(0) == 0
        rf.push(0, 7)
        assert rf.depth_of(0) == 1
