"""Unit tests for the PE operation set and its 32-bit semantics."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.arch.isa import OPCODE_INFO, Opcode, evaluate, is_memory_op, wrap32
from repro.util.errors import SimulationError

i32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)


class TestWrap32:
    def test_identity_in_range(self):
        assert wrap32(123) == 123
        assert wrap32(-123) == -123

    def test_wraps_positive_overflow(self):
        assert wrap32(2**31) == -(2**31)
        assert wrap32(2**32) == 0

    def test_wraps_negative_overflow(self):
        assert wrap32(-(2**31) - 1) == 2**31 - 1

    @given(st.integers(min_value=-(2**40), max_value=2**40))
    def test_always_in_range(self, v):
        w = wrap32(v)
        assert -(2**31) <= w < 2**31

    @given(i32)
    def test_fixed_point_on_i32(self, v):
        assert wrap32(v) == v


class TestEvaluate:
    @pytest.mark.parametrize(
        "op,a,b,expect",
        [
            (Opcode.ADD, 3, 4, 7),
            (Opcode.SUB, 3, 4, -1),
            (Opcode.MUL, -3, 4, -12),
            (Opcode.DIV, 7, 2, 3),
            (Opcode.DIV, -7, 2, -3),  # truncating, not floor
            (Opcode.DIV, 7, 0, 0),
            (Opcode.MOD, 7, 3, 1),
            (Opcode.MOD, -7, 3, -1),
            (Opcode.MOD, 7, 0, 0),
            (Opcode.SHL, 1, 4, 16),
            (Opcode.SHR, -8, 1, -4),  # arithmetic shift
            (Opcode.AND, 0b1100, 0b1010, 0b1000),
            (Opcode.OR, 0b1100, 0b1010, 0b1110),
            (Opcode.XOR, 0b1100, 0b1010, 0b0110),
            (Opcode.MIN, 3, -4, -4),
            (Opcode.MAX, 3, -4, 3),
            (Opcode.LT, 1, 2, 1),
            (Opcode.LE, 2, 2, 1),
            (Opcode.EQ, 2, 3, 0),
            (Opcode.NE, 2, 3, 1),
        ],
    )
    def test_binary_ops(self, op, a, b, expect):
        assert evaluate(op, [a, b]) == expect

    def test_unary_ops(self):
        assert evaluate(Opcode.NEG, [5]) == -5
        assert evaluate(Opcode.NOT, [0]) == -1
        assert evaluate(Opcode.ABS, [-9]) == 9
        assert evaluate(Opcode.ROUTE, [42]) == 42

    def test_select(self):
        assert evaluate(Opcode.SELECT, [1, 10, 20]) == 10
        assert evaluate(Opcode.SELECT, [0, 10, 20]) == 20

    def test_const_needs_immediate(self):
        assert evaluate(Opcode.CONST, [], immediate=7) == 7
        with pytest.raises(SimulationError):
            evaluate(Opcode.CONST, [])

    def test_memory_ops_rejected(self):
        with pytest.raises(SimulationError):
            evaluate(Opcode.LOAD, [])
        with pytest.raises(SimulationError):
            evaluate(Opcode.STORE, [1])

    def test_arity_checked(self):
        with pytest.raises(SimulationError):
            evaluate(Opcode.ADD, [1])

    def test_shift_amount_masked(self):
        assert evaluate(Opcode.SHL, [1, 33]) == 2  # 33 & 31 == 1

    @given(i32, i32)
    def test_add_wraps(self, a, b):
        assert evaluate(Opcode.ADD, [a, b]) == wrap32(a + b)

    @given(i32, i32)
    def test_mul_wraps(self, a, b):
        assert evaluate(Opcode.MUL, [a, b]) == wrap32(a * b)

    @given(i32, i32)
    def test_commutative_ops_commute(self, a, b):
        for op in Opcode:
            info = OPCODE_INFO[op]
            if info.commutative and info.arity == 2:
                assert evaluate(op, [a, b]) == evaluate(op, [b, a])


def evaluate_by_definition(op, operands, immediate=None):
    """The opcode semantics written out as one ``if`` chain — the form
    ``evaluate`` had before it became table-driven, kept as the reference."""
    info = OPCODE_INFO[op]
    if info.is_memory:
        raise SimulationError(f"{op} must be executed by the memory system")
    if len(operands) != info.arity:
        raise SimulationError(f"{op.value} expects {info.arity} operands")
    if op is Opcode.CONST:
        if immediate is None:
            raise SimulationError("CONST requires an immediate")
        return wrap32(immediate)
    a = operands[0] if info.arity >= 1 else 0
    b = operands[1] if info.arity >= 2 else 0
    if op is Opcode.ROUTE:
        return wrap32(a)
    if op is Opcode.NEG:
        return wrap32(-a)
    if op is Opcode.NOT:
        return wrap32(~a)
    if op is Opcode.ABS:
        return wrap32(abs(a))
    if op is Opcode.ADD:
        return wrap32(a + b)
    if op is Opcode.SUB:
        return wrap32(a - b)
    if op is Opcode.MUL:
        return wrap32(a * b)
    if op is Opcode.DIV:
        if b == 0:
            return 0
        q = abs(a) // abs(b)
        return wrap32(-q if (a < 0) != (b < 0) else q)
    if op is Opcode.MOD:
        if b == 0:
            return 0
        r = abs(a) % abs(b)
        return wrap32(-r if a < 0 else r)
    if op is Opcode.SHL:
        return wrap32(a << (b & 31))
    if op is Opcode.SHR:
        return wrap32(a >> (b & 31))
    if op is Opcode.AND:
        return wrap32(a & b)
    if op is Opcode.OR:
        return wrap32(a | b)
    if op is Opcode.XOR:
        return wrap32(a ^ b)
    if op is Opcode.MIN:
        return wrap32(min(a, b))
    if op is Opcode.MAX:
        return wrap32(max(a, b))
    if op is Opcode.LT:
        return int(a < b)
    if op is Opcode.LE:
        return int(a <= b)
    if op is Opcode.EQ:
        return int(a == b)
    if op is Opcode.NE:
        return int(a != b)
    if op is Opcode.SELECT:
        return wrap32(operands[1] if a else operands[2])
    raise AssertionError(f"no definition for {op}")


class TestEvaluateAgainstDefinition:
    """The table-driven ``evaluate`` against the written-out semantics, for
    every opcode, on the operands where 32-bit arithmetic goes wrong."""

    BOUNDARY = [
        -(2**31), -(2**31) + 1, -33, -32, -7, -1, 0, 1, 7, 31, 32, 33, 64,
        2**31 - 1, 2**31, -(2**31) - 1, 2**32 + 5,
    ]

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_every_opcode_on_boundary_operands(self, op):
        info = OPCODE_INFO[op]
        if info.is_memory:
            with pytest.raises(SimulationError, match="memory system"):
                evaluate(op, [0] * info.arity)
            return
        if op is Opcode.CONST:
            for imm in self.BOUNDARY:
                assert evaluate(op, [], imm) == evaluate_by_definition(op, [], imm)
            return
        for operands in itertools.product(self.BOUNDARY, repeat=info.arity):
            assert evaluate(op, list(operands)) == evaluate_by_definition(
                op, list(operands)
            ), (op, operands)

    def test_random_operands(self):
        import random

        rng = random.Random(20260930)
        alu = [op for op in Opcode if not OPCODE_INFO[op].is_memory and op is not Opcode.CONST]
        for _ in range(4000):
            op = rng.choice(alu)
            operands = [
                rng.choice([rng.randint(-(2**33), 2**33), rng.randint(-40, 40)])
                for _ in range(OPCODE_INFO[op].arity)
            ]
            assert evaluate(op, operands) == evaluate_by_definition(op, operands)

    @pytest.mark.parametrize("op", list(Opcode), ids=lambda op: op.value)
    def test_wrong_arity_raises(self, op):
        info = OPCODE_INFO[op]
        if info.is_memory:
            return  # refused before the arity is looked at, see above
        for n in {info.arity - 1, info.arity + 1} - {-1}:
            with pytest.raises(SimulationError, match="expects"):
                evaluate(op, [1] * n, 1)


class TestOpInfo:
    def test_memory_classification(self):
        assert is_memory_op(Opcode.LOAD)
        assert is_memory_op(Opcode.STORE)
        assert not is_memory_op(Opcode.ADD)

    def test_store_passes_value_through(self):
        # STORE's "result" is the stored value, so ordering edges (the
        # spill pattern's store -> loadt token) can hang off it
        assert OPCODE_INFO[Opcode.STORE].produces_value
        assert OPCODE_INFO[Opcode.LOAD].produces_value
        assert OPCODE_INFO[Opcode.LOADT].is_memory

    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert op in OPCODE_INFO
