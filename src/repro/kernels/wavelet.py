"""``wavelet`` — one level of the Haar wavelet transform (stride-2 access).

    s[i] = (in[2i] + in[2i+1]) >> 1      (approximation band)
    d[i] = in[2i] - in[2i+1]             (detail band)
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("wavelet")
    even = b.load("in", stride=2, offset=0)
    odd = b.load("in", stride=2, offset=1)
    s = b.shr(b.add(even, odd, name="sum"), b.const(1), name="approx")
    d = b.sub(even, odd, name="detail")
    b.store("s", s)
    b.store("d", d)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, 2 * trip), "s": [0] * trip, "d": [0] * trip}


def golden(a, trip: int):
    for i in range(trip):
        even, odd = a["in"][2 * i], a["in"][2 * i + 1]
        a["s"][i] = (even + odd) >> 1
        a["d"][i] = even - odd
    return a


SPEC = KernelSpec(
    name="wavelet",
    description="Haar wavelet lifting step with stride-2 streaming",
    build=build,
    arrays=arrays,
    golden=golden,
)
