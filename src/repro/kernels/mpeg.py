"""``mpeg`` — MPEG2 motion-compensation style kernel (the paper's Fig. 2
example family: three loads, one store, arithmetic in between).

    out[i] = clip8(((fwd[i] + bwd[i] + 1) >> 1) + resid[i])
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("mpeg")
    fwd = b.load("fwd")
    bwd = b.load("bwd")
    resid = b.load("resid")
    s = b.add(fwd, bwd, name="sum")
    s1 = b.add(s, b.const(1), name="round")
    avg = b.shr(s1, b.const(1), name="avg")
    mixed = b.add(avg, resid, name="mix")
    clipped = b.clamp(mixed, 0, 255)
    b.store("out", clipped)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {
        "fwd": rng.int_list(0, 256, trip),
        "bwd": rng.int_list(0, 256, trip),
        "resid": rng.int_list(-64, 64, trip),
        "out": [0] * trip,
    }


def golden(a, trip: int):
    for i in range(trip):
        avg = (a["fwd"][i] + a["bwd"][i] + 1) >> 1
        a["out"][i] = min(max(avg + a["resid"][i], 0), 255)
    return a


SPEC = KernelSpec(
    name="mpeg",
    description="MPEG2 bidirectional motion compensation with rounding and clip",
    build=build,
    arrays=arrays,
    golden=golden,
)
