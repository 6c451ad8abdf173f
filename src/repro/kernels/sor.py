"""``sor`` — 1-D successive over-relaxation sweep with a true recurrence.

    out[i] = (out[i-1] + in[i] + in[i+1]) >> 2,   out[-1] = 0

The loop-carried dependence chain (4 single-cycle ops) pins RecMII at 4
regardless of CGRA size — the paper's Fig. 3 utilization argument.
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("sor")
    prev = b.placeholder("prev_out")
    x0 = b.load("in", offset=0)
    x1 = b.load("in", offset=1)
    s = b.add(prev, x0, name="s0")
    s = b.add(s, x1, name="s1")
    cur = b.shr(s, b.const(2), name="relax")
    b.store("out", cur)
    b.bind_carry(prev, cur, distance=1, init=(0,))
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, trip + 1), "out": [0] * trip}


def golden(a, trip: int):
    prev = 0
    src = a["in"]
    for i in range(trip):
        prev = (prev + src[i] + src[i + 1]) >> 2
        a["out"][i] = prev
    return a


SPEC = KernelSpec(
    name="sor",
    description="1-D SOR sweep with a loop-carried relaxation recurrence",
    build=build,
    arrays=arrays,
    golden=golden,
)
