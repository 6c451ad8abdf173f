"""``sobel`` — Sobel gradient magnitude over three image rows.

    gx = (r0[i+2]-r0[i]) + 2*(r1[i+2]-r1[i]) + (r2[i+2]-r2[i])
    gy = (r2[i]+2*r2[i+1]+r2[i+2]) - (r0[i]+2*r0[i+1]+r0[i+2])
    out[i] = min(|gx| + |gy|, 255)

The most memory-intensive kernel of the suite (8 loads + 1 store), which
stresses the data-bus resource bound.
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("sobel")
    r0_0 = b.load("r0", offset=0)
    r0_1 = b.load("r0", offset=1)
    r0_2 = b.load("r0", offset=2)
    r1_0 = b.load("r1", offset=0)
    r1_2 = b.load("r1", offset=2)
    r2_0 = b.load("r2", offset=0)
    r2_1 = b.load("r2", offset=1)
    r2_2 = b.load("r2", offset=2)

    gx = b.add(
        b.add(
            b.sub(r0_2, r0_0, name="dx0"),
            b.shl(b.sub(r1_2, r1_0, name="dx1"), b.const(1), name="2dx1"),
            name="gx01",
        ),
        b.sub(r2_2, r2_0, name="dx2"),
        name="gx",
    )
    top = b.add(b.add(r0_0, b.shl(r0_1, b.const(1), name="2r01"), name="t0"), r0_2, name="top")
    bot = b.add(b.add(r2_0, b.shl(r2_1, b.const(1), name="2r21"), name="b0"), r2_2, name="bot")
    gy = b.sub(bot, top, name="gy")
    mag = b.add(b.abs(gx, name="|gx|"), b.abs(gy, name="|gy|"), name="mag")
    out = b.min(mag, b.const(255), name="sat")
    b.store("out", out)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {
        "r0": rng.int_list(0, 256, trip + 2),
        "r1": rng.int_list(0, 256, trip + 2),
        "r2": rng.int_list(0, 256, trip + 2),
        "out": [0] * trip,
    }


def golden(a, trip: int):
    r0, r1, r2 = a["r0"], a["r1"], a["r2"]
    for i in range(trip):
        gx = (
            (r0[i + 2] - r0[i])
            + 2 * (r1[i + 2] - r1[i])
            + (r2[i + 2] - r2[i])
        )
        top = r0[i] + 2 * r0[i + 1] + r0[i + 2]
        bot = r2[i] + 2 * r2[i + 1] + r2[i + 2]
        a["out"][i] = min(abs(gx) + abs(bot - top), 255)
    return a


SPEC = KernelSpec(
    name="sobel",
    description="Sobel gradient magnitude over three rows (memory heavy)",
    build=build,
    arrays=arrays,
    golden=golden,
)
