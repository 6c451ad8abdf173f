"""``laplace`` — 1-D Laplacian (second difference) edge filter.

    out[i] = in[i] + in[i+2] - 2*in[i+1]
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("laplace")
    left = b.load("in", offset=0)
    mid = b.load("in", offset=1)
    right = b.load("in", offset=2)
    wings = b.add(left, right, name="wings")
    centre = b.shl(mid, b.const(1), name="2mid")
    out = b.sub(wings, centre, name="lap")
    b.store("out", out)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, trip + 2), "out": [0] * trip}


def golden(a, trip: int):
    src = a["in"]
    for i in range(trip):
        a["out"][i] = src[i] + src[i + 2] - 2 * src[i + 1]
    return a


SPEC = KernelSpec(
    name="laplace",
    description="1-D Laplacian second-difference filter",
    build=build,
    arrays=arrays,
    golden=golden,
)
