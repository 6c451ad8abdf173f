"""Unit tests for the DFG model, builder, validation and transforms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch.isa import Opcode
from repro.dfg.analysis import has_positive_cycle, rec_mii
from repro.dfg.builder import DFGBuilder
from repro.dfg.graph import DFG, MemRef
from repro.dfg.transforms import unroll
from repro.dfg.validate import validate_dfg
from repro.sim.reference import run_reference
from repro.util.errors import GraphError


def simple_dfg() -> DFG:
    b = DFGBuilder("t")
    x = b.load("in")
    y = b.add(x, b.const(3))
    b.store("out", y)
    return b.build()


def recurrence_dfg() -> DFG:
    b = DFGBuilder("rec")
    prev = b.placeholder("prev")
    cur = b.add(prev, b.load("in"))
    b.store("out", cur)
    b.bind_carry(prev, cur, distance=1, init=(5,))
    return b.build()


class TestGraphModel:
    def test_ids_dense(self):
        g = simple_dfg()
        assert sorted(g.ops) == list(range(g.num_ops))

    def test_in_edges_sorted_by_operand(self):
        b = DFGBuilder("t")
        x = b.const(1)
        y = b.const(2)
        z = b.sub(y, x)  # operand 0 = y, operand 1 = x
        b.store("out", z)
        g = b.build()
        ins = g.in_edges(z.op_id)
        assert [e.operand_index for e in ins] == [0, 1]
        assert ins[0].src == y.op_id and ins[1].src == x.op_id

    def test_memory_op_counts(self):
        g = simple_dfg()
        assert g.num_memory_ops == 2

    def test_duplicate_operand_rejected(self):
        g = DFG()
        a = g.add_op(Opcode.CONST, immediate=1)
        r = g.add_op(Opcode.ROUTE)
        g.add_edge(a, r, 0)
        with pytest.raises(GraphError):
            g.add_edge(a, r, 0)

    def test_store_value_passthrough_edge_allowed(self):
        # spill ordering edges hang off stores (STORE passes its value)
        g = DFG()
        a = g.add_op(Opcode.CONST, immediate=1)
        s = g.add_op(Opcode.STORE, memref=MemRef("out"))
        g.add_edge(a, s, 0)
        r = g.add_op(Opcode.ROUTE)
        g.add_edge(s, r, 0)  # legal: carries the stored value

    def test_operand_index_range_checked(self):
        g = DFG()
        a = g.add_op(Opcode.CONST, immediate=1)
        r = g.add_op(Opcode.ROUTE)
        with pytest.raises(GraphError):
            g.add_edge(a, r, 1)

    def test_distance_init_mismatch(self):
        g = DFG()
        a = g.add_op(Opcode.CONST, immediate=1)
        r = g.add_op(Opcode.ROUTE)
        with pytest.raises(GraphError):
            g.add_edge(a, r, 0, distance=2, init=(0,))

    def test_memref_requirements(self):
        g = DFG()
        with pytest.raises(GraphError):
            g.add_op(Opcode.LOAD)  # no memref
        with pytest.raises(GraphError):
            g.add_op(Opcode.ADD, memref=MemRef("x"))  # memref on ALU op

    def test_copy_independent(self):
        g = simple_dfg()
        h = g.copy()
        h.add_op(Opcode.CONST, immediate=9)
        assert h.num_ops == g.num_ops + 1

    def test_summary_mentions_loop_carried(self):
        assert "1 loop-carried" in recurrence_dfg().summary()


class TestBuilder:
    def test_unbound_placeholder_rejected(self):
        b = DFGBuilder("t")
        b.placeholder("p")
        with pytest.raises(GraphError):
            b.build()

    def test_double_bind_rejected(self):
        b = DFGBuilder("t")
        p = b.placeholder("p")
        c = b.const(1)
        b.bind_carry(p, c, distance=1)
        with pytest.raises(GraphError):
            b.bind_carry(p, c, distance=1)

    def test_bind_non_placeholder_rejected(self):
        b = DFGBuilder("t")
        c = b.const(1)
        with pytest.raises(GraphError):
            b.bind_carry(c, c, distance=1)

    def test_bind_distance_validated(self):
        b = DFGBuilder("t")
        p = b.placeholder()
        c = b.const(1)
        with pytest.raises(GraphError):
            b.bind_carry(p, c, distance=0)

    def test_default_init_zeros(self):
        b = DFGBuilder("t")
        p = b.placeholder()
        c = b.route(p)
        b.store("out", c)
        b.bind_carry(p, c, distance=2)
        g = b.build()
        carried = [e for e in g.edges.values() if e.distance == 2]
        assert carried and carried[0].init == (0, 0)

    def test_clamp_semantics(self):
        b = DFGBuilder("t")
        x = b.load("in")
        b.store("out", b.clamp(x, 0, 255))
        g = b.build()
        arrays = {
            "in": np.array([-5, 100, 300], dtype=np.int64),
            "out": np.zeros(3, dtype=np.int64),
        }
        run_reference(g, arrays, 3)
        assert list(arrays["out"]) == [0, 100, 255]

    def test_arity_mismatch(self):
        b = DFGBuilder("t")
        x = b.const(1)
        with pytest.raises(GraphError):
            b.op(Opcode.ADD, x)


class TestValidate:
    def test_distance0_cycle_rejected(self):
        g = DFG()
        a = g.add_op(Opcode.ROUTE)
        bb = g.add_op(Opcode.ROUTE)
        g.add_edge(a, bb, 0)
        g.add_edge(bb, a, 0)
        with pytest.raises(GraphError, match=r"cycle op 0 \(op0\) -> op 1 \(op1\) -> op 0 \(op0\):"):
            validate_dfg(g)

    def test_distance0_self_loop_rejected(self):
        g = DFG()
        g.add_op(Opcode.LOAD, memref=MemRef("in"))
        a = g.add_op(Opcode.ROUTE, name="spin")
        with pytest.raises(GraphError, match=r"op 1 cannot feed itself.*bind_carry"):
            g.add_edge(a, a, 0)
        assert g.num_edges == 0

    def test_carried_self_loop_rejected(self):
        """An op never feeds itself, not even iterations later: a
        recurrence is a carried edge into a placeholder op."""
        g = DFG()
        x = g.add_op(Opcode.LOAD, memref=MemRef("in"))
        acc = g.add_op(Opcode.ADD, name="acc")
        g.add_edge(x, acc, 0)
        with pytest.raises(GraphError, match=r"op 1 cannot feed itself.*bind_carry"):
            g.add_edge(acc, acc, 1, distance=2, init=(0, 0))
        b = DFGBuilder()
        ph = b.placeholder("acc")
        with pytest.raises(GraphError, match="cannot feed itself"):
            b.bind_carry(ph, ph)

    def test_cycle_message_names_only_the_ops_on_it(self):
        # x -> a <-> b -> y: x and y touch the cycle but are not on it
        g = DFG()
        x = g.add_op(Opcode.LOAD, memref=MemRef("in"))
        a = g.add_op(Opcode.ADD, name="a")
        bb = g.add_op(Opcode.ROUTE, name="b")
        y = g.add_op(Opcode.STORE, memref=MemRef("out"))
        g.add_edge(x, a, 0)
        g.add_edge(bb, a, 1)
        g.add_edge(a, bb, 0)
        g.add_edge(bb, y, 0)
        with pytest.raises(GraphError) as err:
            validate_dfg(g)
        assert "cycle op 1 (a) -> op 2 (b) -> op 1 (a):" in str(err.value)
        assert "op 0" not in str(err.value) and "op 3" not in str(err.value)

    def test_cycle_through_carry_accepted(self):
        validate_dfg(recurrence_dfg())

    def test_missing_operand_rejected(self):
        g = DFG()
        g.add_op(Opcode.ROUTE)  # route with no input edge
        with pytest.raises(GraphError):
            validate_dfg(g)


class TestRecurrenceBound:
    @pytest.mark.parametrize("tight_first", [True, False])
    def test_parallel_edges_keep_the_smaller_weight(self, tight_first):
        # a feeds both operands of b, once in this iteration and once from
        # two iterations back; b feeds a one iteration on.  The distance-0
        # edge makes the a -> b -> a recurrence 2 cycles over distance 1:
        # RecMII 2.  Were the distance-2 edge the one kept, it would be 1.
        g = DFG()
        a = g.add_op(Opcode.ROUTE)
        b = g.add_op(Opcode.ADD)
        for operand, distance in ((0, 0), (1, 2)) if tight_first else ((1, 2), (0, 0)):
            g.add_edge(a, b, operand, distance=distance, init=(0,) * distance)
        g.add_edge(b, a, 0, distance=1, init=(0,))
        validate_dfg(g)
        assert has_positive_cycle(g, 1)
        assert not has_positive_cycle(g, 2)
        assert rec_mii(g) == 2


class TestUnroll:
    def test_factor_one_is_copy(self):
        g = simple_dfg()
        u = unroll(g, 1)
        assert u.num_ops == g.num_ops

    def test_op_count_scales(self):
        g = simple_dfg()
        u = unroll(g, 3)
        assert u.num_ops == 3 * g.num_ops
        assert u.num_edges == 3 * g.num_edges

    def test_bad_factor(self):
        with pytest.raises(GraphError):
            unroll(simple_dfg(), 0)

    def test_unroll_preserves_semantics_acyclic(self):
        g = simple_dfg()
        u = unroll(g, 2)
        arrays = {"in": np.arange(12, dtype=np.int64), "out": np.zeros(12, dtype=np.int64)}
        ref = run_reference(g, {k: v.copy() for k, v in arrays.items()}, 12)
        got = run_reference(u, {k: v.copy() for k, v in arrays.items()}, 6)
        assert np.array_equal(ref["out"], got["out"])

    def test_unroll_preserves_semantics_recurrence(self):
        g = recurrence_dfg()
        for factor in (2, 3):
            u = unroll(g, factor)
            n = 12
            arrays = {
                "in": np.arange(1, n + 1, dtype=np.int64),
                "out": np.zeros(n, dtype=np.int64),
            }
            ref = run_reference(g, {k: v.copy() for k, v in arrays.items()}, n)
            got = run_reference(u, {k: v.copy() for k, v in arrays.items()}, n // factor)
            assert np.array_equal(ref["out"], got["out"]), factor

    def test_unroll_rejects_modular_memrefs(self):
        b = DFGBuilder("t")
        x = b.load("buf", ring=4)
        b.store("out", x)
        g = b.build()
        with pytest.raises(GraphError):
            unroll(g, 2)

    def test_fig3_recurrence_distance_redistribution(self):
        """Fig. 3: unrolling a distance-1 recurrence gives one distance-1
        edge and factor-1 distance-0 edges between the copies."""
        g = recurrence_dfg()
        u = unroll(g, 2)
        carried = [e for e in u.edges.values() if e.distance > 0]
        # original had 1 loop-carried edge; after x2 unroll exactly one copy
        # still crosses the iteration boundary
        assert len(carried) == 1
        assert carried[0].distance == 1
