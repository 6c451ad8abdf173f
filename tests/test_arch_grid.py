"""Unit tests for the mesh interconnect, memory and CGRA, and for the
rotating register files as `simulate` keeps them."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord, GridIndex
from repro.arch.isa import Opcode
from repro.arch.memory import DataMemory
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import Firing, ResolvedRead
from repro.sim.trace import CycleTrace
from repro.util.errors import ArchitectureError, SimulationError


class TestCoord:
    def test_manhattan(self):
        assert Coord(0, 0).manhattan(Coord(2, 3)) == 5
        assert Coord(1, 1).manhattan(Coord(1, 1)) == 0

    def test_ordering_row_major(self):
        assert Coord(0, 3) < Coord(1, 0)


class TestInterconnect:
    """The mesh: :class:`GridIndex`'s integer tables and the Coord-domain
    queries :class:`CGRA` answers from them."""

    def test_corner_has_two_neighbors(self):
        assert set(CGRA(4, 4).neighbors(Coord(0, 0))) == {Coord(0, 1), Coord(1, 0)}

    def test_interior_has_four_neighbors(self):
        assert len(CGRA(4, 4).neighbors(Coord(1, 1))) == 4

    def test_self_reachable(self):
        cgra = CGRA(3, 3)
        gi = cgra.grid_index
        centre = gi.id_of[Coord(1, 1)]
        assert gi.reach1_ids[centre][0] == centre
        assert cgra.adjacent_or_same(Coord(1, 1), Coord(1, 1))

    def test_adjacency_symmetric(self):
        cgra = CGRA(5, 3)
        for a in cgra.coords():
            for b in cgra.coords():
                assert cgra.adjacent_or_same(a, b) == cgra.adjacent_or_same(b, a)

    def test_index_roundtrip(self):
        gi = GridIndex(3, 5)
        for i, c in enumerate(gi.coords):
            assert gi.id_of[c] == i == c.row * 5 + c.col

    def test_bad_grid_rejected(self):
        with pytest.raises(ArchitectureError):
            CGRA(0, 4)

    def test_out_of_grid_queries_rejected(self):
        cgra = CGRA(2, 2)
        with pytest.raises(ArchitectureError):
            cgra.neighbors(Coord(5, 5))
        assert Coord(-1, 0) not in cgra.grid_index.id_of

    @given(st.integers(1, 6), st.integers(1, 6))
    def test_neighbor_counts_sum(self, rows, cols):
        """Handshake lemma: directed neighbour links == 2 * mesh edges."""
        gi = GridIndex(rows, cols)
        total = sum(len(n) for n in gi.neighbor_ids)
        expected_edges = rows * (cols - 1) + cols * (rows - 1)
        assert total == 2 * expected_edges
        for i, nbrs in enumerate(gi.neighbor_ids):
            assert all(gi.manhattan[i][j] == 1 for j in nbrs)

    @pytest.mark.parametrize(
        "shape, pe, expected",
        [
            ((4, 4), (0, 0), ((1, 0), (0, 1))),  # corner
            ((4, 4), (3, 3), ((2, 3), (3, 2))),  # corner
            ((4, 4), (0, 2), ((1, 2), (0, 1), (0, 3))),  # top edge
            ((4, 4), (3, 1), ((2, 1), (3, 0), (3, 2))),  # bottom edge
            ((4, 4), (2, 1), ((1, 1), (3, 1), (2, 0), (2, 2))),  # interior
            ((3, 5), (0, 0), ((1, 0), (0, 1))),  # corner
            ((3, 5), (2, 4), ((1, 4), (2, 3))),  # corner
            ((3, 5), (1, 0), ((0, 0), (2, 0), (1, 1))),  # left edge
            ((3, 5), (0, 3), ((1, 3), (0, 2), (0, 4))),  # top edge
            ((3, 5), (1, 2), ((0, 2), (2, 2), (1, 1), (1, 3))),  # interior
        ],
    )
    def test_neighbor_order_is_pinned(self, shape, pe, expected):
        """Up, down, left, right: the router and placer try candidates in
        this order, so it is part of every artifact's bytes."""
        cgra = CGRA(*shape)
        gi = cgra.grid_index
        expected = tuple(Coord(*c) for c in expected)
        assert cgra.neighbors(Coord(*pe)) == expected
        pe_id = gi.id_of[Coord(*pe)]
        assert gi.neighbor_ids[pe_id] == tuple(gi.id_of[c] for c in expected)
        assert gi.reach1_ids[pe_id] == (pe_id,) + gi.neighbor_ids[pe_id]


# The rotating register file lives inside `simulate`: a PE's file is
# observed through CONST firings pushing onto PE (0,0) and ROUTE firings on
# its neighbour (0,1) reading them back.
PRODUCER, READER = Coord(0, 0), Coord(0, 1)
NOT_IN_FILE = "not in the rotating register file"


def push(cycle, value, pe=PRODUCER, opcode=Opcode.CONST):
    if opcode is Opcode.CONST:
        return Firing(cycle, pe, f"p{cycle}", opcode, immediate=value)
    return Firing(cycle, pe, f"p{cycle}", opcode, operands=value)


def read(cycle, produced, pe=READER):
    return Firing(
        cycle, pe, f"r{produced}", Opcode.ROUTE,
        operands=(ResolvedRead(PRODUCER, produced),),
    )


def run_rf(firings, depth, **keywords):
    """Simulate *firings* with a *depth*-deep file; return the result and
    each firing's value by label."""
    trace = CycleTrace()
    result = simulate(
        firings, CGRA(2, 2), DataMemory(8), rf_depth=depth, trace=trace, **keywords
    )
    return result, {r.label: r.value for r in trace.records}


class TestRotatingRegisterFile:
    def test_push_read(self):
        result, values = run_rf([push(0, 10), push(2, 20), read(3, 0), read(4, 2)], 4)
        assert values["r0"] == 10 and values["r2"] == 20
        # the oldest value sits one push under the newest (the output register)
        assert result.rf_reads == 2 and result.rf_max_depth_used == 2

    def test_eviction_at_depth(self):
        pushes = [push(c, v) for c, v in [(0, 1), (1, 2), (2, 3)]]
        with pytest.raises(SimulationError, match=NOT_IN_FILE):
            run_rf(pushes + [read(3, 0)], 2)
        result, values = run_rf(pushes + [read(3, 1)], 2)
        assert values["r1"] == 2 and result.rf_max_depth_used == 2

    def test_time_ordering_enforced(self):
        # a file takes one push per cycle: a second push at cycle 5 is refused
        # even when the slot-conflict check that would catch it first is off
        twice = [push(5, 1), Firing(5, PRODUCER, "again", Opcode.CONST, immediate=2)]
        with pytest.raises(SimulationError, match="double-booked"):
            run_rf(twice, 4)
        with pytest.raises(SimulationError, match="pushes must be time-ordered"):
            run_rf(twice, 4, check_conflicts=False)
        # pushes listed out of order are executed in time order
        result, values = run_rf([push(5, 1), push(3, 2), read(6, 3)], 4)
        assert values["r3"] == 2 and result.rf_max_depth_used == 2

    def test_depth_validation(self):
        for depth in (0, -2):
            with pytest.raises(SimulationError, match=f"depth must be >= 1, got {depth}"):
                run_rf([push(0, 1)], depth)

    def test_occupancy_watermark(self):
        pushes = [push(c, c) for c in range(10)]
        result, values = run_rf(pushes + [read(10 + k, 9 - k) for k in range(3)], 3)
        assert [values[f"r{c}"] for c in (9, 8, 7)] == [9, 8, 7]
        assert result.rf_max_depth_used == 3
        with pytest.raises(SimulationError, match=NOT_IN_FILE):
            run_rf(pushes + [read(10, 6)], 3)

    def test_clear(self):
        run_rf([push(0, 1)], 3)
        # every run starts from empty files: nothing of the last run is read
        with pytest.raises(SimulationError, match="never produced"):
            run_rf([read(1, 0)], 3)
        _, values = run_rf([push(0, 2), read(1, 0)], 3)  # time restarts
        assert values["r0"] == 2

    def test_depth_is_the_count_of_entries_at_least_as_new(self):
        """A read against its definition, under random pushes and reads
        that overflow the file: it succeeds exactly when the value is among
        the PE's newest `depth` productions, and the depth it reaches is
        the number of those at least as new; evicted and never-produced
        cycles are refused."""
        import random

        rng = random.Random(20260930)
        for _ in range(200):
            depth = rng.randint(1, 9)
            pushes: list[Firing] = []
            retained: list[int] = []  # the model: the newest `depth` cycles
            cycle = -1
            for _ in range(rng.randint(1, 60)):
                if retained and rng.random() < 0.4:
                    probe = rng.randint(0, cycle)
                    firings = pushes + [read(cycle + 1, probe)]
                    if probe in retained:
                        result, values = run_rf(firings, depth)
                        newer_or_same = sum(1 for c in retained if c >= probe)
                        assert result.rf_max_depth_used == newer_or_same
                        assert values[f"r{probe}"] == probe * 3
                    else:
                        with pytest.raises(SimulationError, match=NOT_IN_FILE):
                            run_rf(firings, depth)
                else:
                    cycle += rng.randint(1, 3)
                    pushes.append(push(cycle, cycle * 3))
                    retained = (retained + [cycle])[-depth:]
            newest = run_rf(pushes + [read(cycle + 1, cycle)], depth)[0]
            oldest = run_rf(pushes + [read(cycle + 1, retained[0])], depth)[0]
            assert newest.rf_max_depth_used == 1
            assert oldest.rf_max_depth_used == len(retained)

    @given(st.integers(1, 8), st.lists(st.integers(0, 100), min_size=1, max_size=20, unique=True))
    def test_last_depth_values_always_readable(self, depth, cycles):
        cycles = sorted(cycles)
        last = cycles[-1]
        reads = [read(last + 1 + k, c) for k, c in enumerate(cycles[-depth:])]
        _, values = run_rf([push(c, c * 7) for c in cycles] + reads, depth)
        for c in cycles[-depth:]:
            assert values[f"r{c}"] == c * 7


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
        add = push(5, (2, 3), opcode=Opcode.ADD)
        result, values = run_rf([add, read(6, 5)], 4)
        assert values["p5"] == 5 and values["r5"] == 5
        assert result.pe_busy[PRODUCER] == 1

    def test_depth_accounting(self):
        adds = [push(c, (c, 0), opcode=Opcode.ADD) for c in range(3)]
        assert run_rf(adds + [read(3, 2)], 4)[0].rf_max_depth_used == 1  # newest
        assert run_rf(adds + [read(3, 0)], 4)[0].rf_max_depth_used == 3  # oldest

    def test_depth_of_missing_raises(self):
        with pytest.raises(SimulationError, match=NOT_IN_FILE):
            run_rf([push(0, 1), read(10, 9)], 2)

    def test_rf_depth_of_absent_is_zero(self):
        with pytest.raises(SimulationError, match="never produced"):
            run_rf([read(1, 0)], 2)
        assert run_rf([push(0, 7), read(1, 0)], 2)[0].rf_max_depth_used == 1
