"""``lowpass`` — 5-tap binomial FIR smoothing filter.

    out[i] = (in[i] + 4*in[i+1] + 6*in[i+2] + 4*in[i+3] + in[i+4]) >> 4
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("lowpass")
    x0 = b.load("in", offset=0)
    x1 = b.load("in", offset=1)
    x2 = b.load("in", offset=2)
    x3 = b.load("in", offset=3)
    x4 = b.load("in", offset=4)
    t1 = b.shl(b.add(x1, x3, name="x13"), b.const(2), name="4x13")
    t2 = b.mul(x2, b.const(6), name="6x2")
    edges = b.add(x0, x4, name="edges")
    acc = b.add(b.add(t1, t2, name="mid"), edges, name="acc")
    out = b.shr(acc, b.const(4), name="norm")
    b.store("out", out)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, trip + 4), "out": [0] * trip}


def golden(a, trip: int):
    s = a["in"]
    for i in range(trip):
        a["out"][i] = (
            s[i] + 4 * s[i + 1] + 6 * s[i + 2] + 4 * s[i + 3] + s[i + 4]
        ) >> 4
    return a


SPEC = KernelSpec(
    name="lowpass",
    description="5-tap binomial low-pass FIR filter",
    build=build,
    arrays=arrays,
    golden=golden,
)
