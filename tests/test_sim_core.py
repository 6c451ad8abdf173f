"""Unit tests for the cycle-accurate simulator core and lowering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.arch.isa import Opcode
from repro.arch.memory import DataMemory
from repro.compiler.paged import map_dfg_paged
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.kernels import bind_memory
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import (
    Firing,
    GlobalSlot,
    ResolvedRead,
    lower_mapping,
    resolve_addr,
)
from repro.sim.reference import run_reference
from repro.sim.retarget import required_batches, retarget_firings
from repro.dfg.builder import DFGBuilder
from repro.dfg.graph import MemRef
from repro.util.errors import SimulationError


def F(cycle, pe, opcode, label="f", **kw):
    return Firing(cycle=cycle, pe=pe, label=label, opcode=opcode, **kw)


class TestSimulatorContracts:
    def test_pe_double_booking_rejected(self, cgra44):
        mem = DataMemory(64)
        firings = [
            F(0, Coord(0, 0), Opcode.CONST, "a", immediate=1),
            F(0, Coord(0, 0), Opcode.CONST, "b", immediate=2),
        ]
        with pytest.raises(SimulationError, match="double-booked at cycle 0: a and b"):
            simulate(firings, cgra44, mem)

    def test_bus_capacity_enforced(self, cgra44):
        mem = DataMemory(64)
        mem.bind_array("x", [1, 2, 3, 4])
        firings = [
            F(0, Coord(0, 0), Opcode.LOAD, "l0", addr=0),
            F(0, Coord(0, 1), Opcode.LOAD, "l1", addr=1),
        ]
        with pytest.raises(SimulationError, match="bus segment 0 over capacity"):
            simulate(firings, cgra44, mem)
        # different rows: fine
        ok = [
            F(0, Coord(0, 0), Opcode.LOAD, "l0", addr=0),
            F(0, Coord(1, 0), Opcode.LOAD, "l1", addr=1),
        ]
        res = simulate(ok, cgra44, DataMemoryWith(mem))
        assert res.loads == 2

    def test_custom_bus_key(self, cgra44):
        mem = DataMemory(64)
        mem.bind_array("x", [1, 2])
        firings = [
            F(0, Coord(0, 0), Opcode.LOAD, "l0", addr=0),
            F(0, Coord(0, 3), Opcode.LOAD, "l1", addr=1),
        ]
        res = simulate(firings, cgra44, mem, bus_key=lambda pe: pe.col)
        assert res.loads == 2

    def test_read_of_future_value_rejected(self, cgra44):
        mem = DataMemory(64)
        firings = [
            F(0, Coord(0, 0), Opcode.CONST, "c", immediate=5),
            F(
                1,
                Coord(0, 1),
                Opcode.ROUTE,
                "r",
                operands=(ResolvedRead(Coord(0, 0), 1),),
            ),
        ]
        with pytest.raises(SimulationError, match="cycle 1 >= its own cycle 1"):
            simulate(firings, cgra44, mem)

    def test_read_of_never_produced_rejected(self, cgra44):
        mem = DataMemory(64)
        firings = [
            F(
                1,
                Coord(0, 1),
                Opcode.ROUTE,
                "r",
                operands=(ResolvedRead(Coord(3, 3), 0),),
            ),
        ]
        with pytest.raises(SimulationError, match=r"PE \(3,3\) which never produced"):
            simulate(firings, cgra44, mem)

    def test_rf_depth_enforced(self, cgra44):
        mem = DataMemory(64)
        firings = [F(c, Coord(0, 0), Opcode.CONST, f"c{c}", immediate=c) for c in range(6)]
        firings.append(
            F(
                9,
                Coord(0, 1),
                Opcode.ROUTE,
                "deep",
                operands=(ResolvedRead(Coord(0, 0), 0),),
            )
        )
        with pytest.raises(SimulationError, match="not in the rotating register file"):
            simulate(firings, cgra44, mem, rf_depth=3)
        res = simulate(firings, cgra44, mem, rf_depth=6)
        assert res.rf_max_depth_used == 6

    def test_load_store_hazard_same_cycle(self, cgra44):
        mem = DataMemory(64)
        mem.bind_array("x", [7])
        firings = [
            F(0, Coord(0, 0), Opcode.CONST, "v", immediate=9),
            F(
                1,
                Coord(0, 0),
                Opcode.STORE,
                "st",
                operands=(ResolvedRead(Coord(0, 0), 0),),
                addr=0,
            ),
            F(1, Coord(1, 0), Opcode.LOAD, "ld", addr=0),
        ]
        with pytest.raises(SimulationError, match="ld: load/store hazard at address 0"):
            simulate(firings, cgra44, mem)

    def test_double_store_same_address_rejected(self, cgra44):
        mem = DataMemory(64)
        mem.bind_array("x", [0])
        firings = [
            F(0, Coord(0, 0), Opcode.CONST, "v", immediate=1),
            F(
                1,
                Coord(0, 0),
                Opcode.STORE,
                "s1",
                operands=(ResolvedRead(Coord(0, 0), 0),),
                addr=0,
            ),
            F(
                1,
                Coord(1, 0),
                Opcode.STORE,
                "s2",
                operands=(ResolvedRead(Coord(0, 0), 0),),
                addr=0,
            ),
        ]
        with pytest.raises(SimulationError, match=r"s2: double store to address 0 \(s1\)"):
            simulate(firings, cgra44, mem)

    def test_global_slot_roundtrip(self, cgra44):
        mem = DataMemory(64)
        slot = GlobalSlot(3, 0)
        firings = [
            F(
                0,
                Coord(0, 0),
                Opcode.CONST,
                "p",
                immediate=42,
                global_writes=(slot,),
            ),
            F(5, Coord(3, 3), Opcode.ROUTE, "c", operands=(slot,)),
        ]
        res = simulate(firings, cgra44, mem)
        assert res.global_writes == 1 and res.global_reads == 1

    def test_global_read_before_write_rejected(self, cgra44):
        mem = DataMemory(64)
        firings = [
            F(0, Coord(0, 0), Opcode.ROUTE, "c", operands=(GlobalSlot(1, 0),)),
        ]
        with pytest.raises(SimulationError, match="before any write"):
            simulate(firings, cgra44, mem)

    def test_operand_sources_are_told_apart_by_kind(self, cgra44):
        """Immediates, register reads and global slots are told apart by
        type; a subclass counts as its base (``bool`` is an immediate), and
        anything else is refused."""
        mem = DataMemory(64)
        res = simulate(
            [
                F(0, Coord(0, 0), Opcode.ADD, "a", operands=(True, 2)),
                F(1, Coord(0, 1), Opcode.ADD, "b",
                  operands=(ResolvedRead(Coord(0, 0), 0), False)),
                F(2, Coord(0, 1), Opcode.STORE, "s", addr=5,
                  operands=(ResolvedRead(Coord(0, 1), 1),)),
            ],
            cgra44,
            mem,
        )
        assert mem.load(5) == 3 and res.rf_reads == 2
        with pytest.raises(SimulationError, match="unknown operand source"):
            simulate([F(0, Coord(0, 0), Opcode.ROUTE, "r", operands=(1.5,))], cgra44, mem)

    def test_negative_cycle_rejected(self, cgra44):
        mem = DataMemory(64)
        with pytest.raises(SimulationError, match="firing f at negative cycle"):
            simulate([F(-1, Coord(0, 0), Opcode.CONST, immediate=0)], cgra44, mem)

    def test_pe_outside_grid_rejected(self, cgra44):
        mem = DataMemory(64)
        for pe in (Coord(4, 0), Coord(0, 4), Coord(-1, 2)):
            with pytest.raises(SimulationError, match="fires on PE .* outside grid"):
                simulate([F(0, pe, Opcode.CONST, "c", immediate=0)], cgra44, mem)

    @pytest.mark.parametrize("opcode", [Opcode.LOAD, Opcode.LOADT, Opcode.STORE])
    def test_memory_firing_without_address_rejected(self, cgra44, opcode):
        kind = "store" if opcode is Opcode.STORE else "load"
        operands = (0,) if opcode is not Opcode.LOAD else ()
        with pytest.raises(SimulationError, match=f"m: {kind} without address"):
            simulate([F(0, Coord(0, 0), opcode, "m", operands=operands)], cgra44,
                     DataMemory(64))

    def test_out_of_order_push_rejected(self, cgra44):
        """A double-booked PE that slips past the conflict check still
        cannot push two values into its register file in one cycle."""
        firings = [
            F(3, Coord(1, 1), Opcode.CONST, "a", immediate=1),
            F(3, Coord(1, 1), Opcode.ADD, "b", operands=(1, 2)),
        ]
        with pytest.raises(
            SimulationError,
            match=r"b: register file pushes must be time-ordered: "
            r"PE \(1,1\) already pushed at cycle 3",
        ):
            simulate(firings, cgra44, DataMemory(64), check_conflicts=False)

    def test_alu_shape_errors_come_from_evaluate(self, cgra44):
        """The simulator's ALU table covers only well-formed calls; an arity
        mismatch or an immediate-less CONST is reported as `evaluate`
        reports it."""
        mem = DataMemory(64)
        with pytest.raises(SimulationError, match="add expects 2 operands, got 1"):
            simulate([F(0, Coord(0, 0), Opcode.ADD, "a", operands=(1,))], cgra44, mem)
        with pytest.raises(SimulationError, match="CONST requires an immediate"):
            simulate([F(0, Coord(0, 0), Opcode.CONST, "c")], cgra44, mem)

    def test_utilization_metric(self, cgra44):
        mem = DataMemory(64)
        firings = [F(0, Coord(0, 0), Opcode.CONST, "c", immediate=0)]
        res = simulate(firings, cgra44, mem)
        assert res.utilization(cgra44) == pytest.approx(1 / 16)


def DataMemoryWith(src):  # tiny helper: fresh memory with same arrays
    mem = DataMemory(src.size)
    for name, arr in src.snapshot().items():
        mem.bind_array(name, arr)
    return mem


class TestAddressing:
    def test_resolve_addr_bounds(self):
        mem = DataMemory(64)
        mem.bind_array("a", [0] * 4)
        assert resolve_addr(MemRef("a", stride=1, offset=0), 3, mem) == 3
        with pytest.raises(SimulationError, match=r"index 4 out of bounds \[0,4\)"):
            resolve_addr(MemRef("a", stride=1, offset=0), 4, mem)
        with pytest.raises(SimulationError, match="no array named 'missing'"):
            resolve_addr(MemRef("missing"), 0, mem)


class TestStampArguments:
    """``lower_mapping`` and ``retarget_firings`` share ``stamp_firings``'s
    argument checks."""

    @pytest.fixture(scope="class")
    def copy_kernel(self):
        # out[i+1] = in[i+1]: iteration -1 would be in bounds at index 0
        b = DFGBuilder("copy")
        b.store("out", b.load("in", offset=1), offset=1)
        cgra = CGRA(4, 4)
        return map_dfg_paged(b.build(), cgra, PageLayout(cgra, (2, 2)))

    def memory(self):
        return bind_memory({"in": np.arange(1, 5), "out": np.zeros(4, dtype=np.int64)})

    def test_lower_rejects_negative_first_iteration(self, copy_kernel):
        mem = self.memory()
        with pytest.raises(SimulationError, match="first_iteration must be >= 0, got -1"):
            lower_mapping(copy_kernel.mapping, mem, 2, first_iteration=-1)
        simulate(lower_mapping(copy_kernel.mapping, mem, 2), copy_kernel.mapping.cgra, mem)
        assert list(mem.read_array("out")) == [0, 2, 3, 0]

    def test_retarget_rejects_negative_first_iteration(self, copy_kernel):
        paged = copy_kernel
        placement = PageMaster(
            paged.layout.num_pages, paged.ii, 1, wrap_used=paged.wrap_used
        ).place(batches=required_batches(paged.mapping, 2))
        with pytest.raises(SimulationError, match="first_iteration must be >= 0, got -1"):
            retarget_firings(paged, placement, [0], self.memory(), 2, first_iteration=-1)
        assert retarget_firings(paged, placement, [0], self.memory(), 2)


class TestReferenceInterpreter:
    def test_negative_trip_rejected(self):
        b = DFGBuilder("t")
        b.store("out", b.load("in"))
        g = b.build()
        with pytest.raises(SimulationError, match="trip count must be >= 0, got -1"):
            run_reference(g, {"in": np.zeros(1), "out": np.zeros(1)}, -1)

    def test_out_of_bounds_index_rejected(self):
        b = DFGBuilder("t")
        b.store("out", b.load("in", offset=10))
        g = b.build()
        arrays = {
            "in": np.zeros(4, dtype=np.int64),
            "out": np.zeros(4, dtype=np.int64),
        }
        with pytest.raises(SimulationError, match="index 10 out of bounds"):
            run_reference(g, arrays, 1)

    def test_unbound_array_rejected(self):
        b = DFGBuilder("t")
        b.store("out", b.load("nope"))
        g = b.build()
        with pytest.raises(SimulationError, match="unbound array 'nope'"):
            run_reference(g, {"out": np.zeros(1, dtype=np.int64)}, 1)

    def test_carry_inits_used(self):
        b = DFGBuilder("t")
        ph = b.placeholder("prev")
        b.store("out", ph)
        b.bind_carry(ph, b.load("in"), distance=2, init=(100, 200))
        g = b.build()
        arrays = {
            "in": np.arange(5, dtype=np.int64),
            "out": np.zeros(5, dtype=np.int64),
        }
        run_reference(g, arrays, 5)
        assert list(arrays["out"]) == [100, 200, 0, 1, 2]
