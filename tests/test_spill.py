"""Tests for memory spilling of long-lived temporaries (§VI-B's explicit
register-usage mechanism)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.cgra import CGRA
from repro.arch.isa import Opcode
from repro.compiler.check import validate_mapping
from repro.compiler.ems import map_dfg
from repro.dfg.builder import DFGBuilder
from repro.dfg.spill import (
    TMP_ARRAY_PREFIX,
    spill_candidates,
    spill_long_edges,
)
from repro.dfg.validate import validate_dfg
from repro.kernels import bind_memory, get_kernel
from repro.sim.cgra_sim import simulate
from repro.sim.lowering import lower_mapping
from repro.sim.reference import run_reference
from repro.util.errors import GraphError


def deep_dfg(levels: int = 8):
    """A chain with a long skip edge from the first load to the last add."""
    b = DFGBuilder("deep")
    first = b.load("in")
    x = first
    for _ in range(levels):
        x = b.add(x, b.const(1))
    out = b.add(x, first)  # long edge: first -> here
    b.store("out", out)
    return b.build()


class TestCandidates:
    def test_long_edge_found(self):
        g = deep_dfg()
        cands = spill_candidates(g, threshold=4)
        assert len(cands) == 1

    def test_threshold_filters(self):
        g = deep_dfg()
        assert spill_candidates(g, threshold=100) == []

    def test_const_and_carried_edges_never_spilled(self):
        b = DFGBuilder("rec")
        ph = b.placeholder("ph")
        x = b.load("in")
        y = x
        for _ in range(8):
            y = b.add(y, b.const(3))
        cur = b.add(y, ph)
        b.store("out", cur)
        b.bind_carry(ph, cur, distance=1, init=(0,))
        g = b.build()
        spilled, _n = spill_long_edges(g, threshold=2)
        for e in spilled.edges.values():
            assert e.distance == 0 or not spilled.ops[e.src].memref

    def test_bad_threshold(self):
        with pytest.raises(GraphError):
            spill_candidates(deep_dfg(), threshold=0)


class TestRewrite:
    def test_adds_store_loadt_pair(self):
        g = deep_dfg()
        spilled, n = spill_long_edges(g, threshold=4)
        assert n == 1
        validate_dfg(spilled)
        assert spilled.num_ops == g.num_ops + 2
        opcodes = [op.opcode for op in spilled.ops.values()]
        assert Opcode.LOADT in opcodes

    def test_no_op_when_nothing_long(self):
        g = deep_dfg()
        spilled, n = spill_long_edges(g, threshold=50)
        assert n == 0 and spilled.num_ops == g.num_ops

    def test_reference_equivalence(self):
        g = deep_dfg()
        spilled, _ = spill_long_edges(g, threshold=4)
        trip = 15
        arrays = {
            "in": np.arange(1, trip + 1, dtype=np.int64),
            "out": np.zeros(trip, dtype=np.int64),
        }
        ref = run_reference(g, {k: v.copy() for k, v in arrays.items()}, trip)
        arr2 = {k: v.copy() for k, v in arrays.items()}
        for op in spilled.ops.values():
            if op.memref and op.memref.array.startswith(TMP_ARRAY_PREFIX):
                arr2.setdefault(
                    op.memref.array, np.zeros(op.memref.ring, dtype=np.int64)
                )
        got = run_reference(spilled, arr2, trip)
        assert np.array_equal(got["out"], ref["out"])

    def test_mapped_and_simulated_equivalence(self):
        trip = 18
        cgra = CGRA(4, 4, rf_depth=8)
        spec = get_kernel("lowpass")
        dfg, arrays, expected = spec.fresh(seed=5, trip=trip)
        spilled, n = spill_long_edges(dfg, threshold=2)
        assert n >= 1
        m = map_dfg(spilled, cgra)
        validate_mapping(m)
        mem = bind_memory(arrays)
        for op in spilled.ops.values():
            if op.opcode is Opcode.STORE and op.memref.array.startswith(
                TMP_ARRAY_PREFIX
            ):
                mem.bind_array(op.memref.array, [0] * op.memref.ring)
        simulate(lower_mapping(m, mem, trip), cgra, mem)
        snap = mem.snapshot()
        for arr in expected:
            assert np.array_equal(snap[arr], expected[arr]), arr

    def test_spill_reduces_route_slots_on_deep_graph(self):
        """The point of the constraint: memory round trips replace long
        slot-burning route chains."""
        from repro.compiler.constraints import register_usage_report

        cgra = CGRA(4, 4, rf_depth=8)
        g = deep_dfg(levels=10)
        plain = map_dfg(g, cgra)
        spilled, _ = spill_long_edges(g, threshold=3)
        after = map_dfg(spilled, cgra)
        plain_slots = sum(register_usage_report(plain).values())
        spilled_slots = sum(register_usage_report(after).values())
        assert spilled_slots < plain_slots
