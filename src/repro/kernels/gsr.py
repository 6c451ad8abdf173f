"""``gsr`` — Gauss-Seidel relaxation filter row: the update uses the
*already updated* left neighbour (loop-carried) and the stale right
neighbour, the classic Gauss-Seidel data flow.

    out[i] = (out[i-1] + 2*in[i] + in[i+1]) >> 2,   out[-1] = in[0]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec

if TYPE_CHECKING:
    import numpy as np

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


def arrays(rng: np.random.Generator, trip: int):
    import numpy as np

    return {
        "in": rng.integers(0, 256, trip + 1, dtype=np.int64),
        "out": np.zeros(trip, dtype=np.int64),
    }


def golden(a, trip: int):
    prev = 100
    for i in range(trip):
        prev = (prev + 2 * int(a["in"][i]) + int(a["in"][i + 1])) >> 2
        a["out"][i] = prev
    return a


SPEC = KernelSpec(
    name="gsr",
    description="Gauss-Seidel relaxation row with updated-left-neighbour recurrence",
    build=build,
    arrays=arrays,
    golden=golden,
)
