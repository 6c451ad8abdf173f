"""``gsr`` — Gauss-Seidel relaxation filter row: the update uses the
*already updated* left neighbour (loop-carried) and the stale right
neighbour, the classic Gauss-Seidel data flow.

    out[i] = (out[i-1] + 2*in[i] + in[i+1]) >> 2,   out[-1] = in[0]
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("gsr")
    prev = b.placeholder("prev_out")
    mid = b.load("in", offset=0)
    right = b.load("in", offset=1)
    two_mid = b.shl(mid, b.const(1), name="2mid")
    s = b.add(prev, two_mid, name="s0")
    s = b.add(s, right, name="s1")
    cur = b.shr(s, b.const(2), name="relax")
    b.store("out", cur)
    b.bind_carry(prev, cur, distance=1, init=(100,))
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, trip + 1), "out": [0] * trip}


def golden(a, trip: int):
    prev = 100
    for i in range(trip):
        prev = (prev + 2 * a["in"][i] + a["in"][i + 1]) >> 2
        a["out"][i] = prev
    return a


SPEC = KernelSpec(
    name="gsr",
    description="Gauss-Seidel relaxation row with updated-left-neighbour recurrence",
    build=build,
    arrays=arrays,
    golden=golden,
)
