"""``yuv2rgb`` — integer YCbCr-to-RGB conversion (ITU-R BT.601 fixed point).

    c = y[i] - 16;  d = u[i] - 128;  e = v[i] - 128
    r = clip8((298*c + 409*e + 128) >> 8)
    g = clip8((298*c - 100*d - 208*e + 128) >> 8)
    b = clip8((298*c + 516*d + 128) >> 8)

The widest kernel of the suite (three loads, three stores, three long
arithmetic chains) — it exercises compute ResMII on small CGRAs.
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("yuv2rgb")
    y = b.load("y")
    u = b.load("u")
    v = b.load("v")
    c = b.sub(y, b.const(16), name="c")
    d = b.sub(u, b.const(128), name="d")
    e = b.sub(v, b.const(128), name="e")
    c298 = b.mul(c, b.const(298), name="c298")
    base = b.add(c298, b.const(128), name="base")  # 298*c + 128, shared

    r_acc = b.add(base, b.mul(e, b.const(409)), name="r_acc")
    r = b.clamp(b.shr(r_acc, b.const(8)), 0, 255)
    b.store("r", r)

    g_acc = b.sub(
        base,
        b.add(b.mul(d, b.const(100)), b.mul(e, b.const(208)), name="g_sub"),
        name="g_acc",
    )
    g = b.clamp(b.shr(g_acc, b.const(8)), 0, 255)
    b.store("g", g)

    bl_acc = b.add(base, b.mul(d, b.const(516)), name="b_acc")
    bl = b.clamp(b.shr(bl_acc, b.const(8)), 0, 255)
    b.store("b", bl)
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {
        "y": rng.int_list(16, 236, trip),
        "u": rng.int_list(16, 241, trip),
        "v": rng.int_list(16, 241, trip),
        "r": [0] * trip,
        "g": [0] * trip,
        "b": [0] * trip,
    }


def golden(a, trip: int):
    for i in range(trip):
        d = a["u"][i] - 128
        e = a["v"][i] - 128
        base = 298 * (a["y"][i] - 16) + 128
        a["r"][i] = min(max((base + 409 * e) >> 8, 0), 255)
        a["g"][i] = min(max((base - (100 * d + 208 * e)) >> 8, 0), 255)
        a["b"][i] = min(max((base + 516 * d) >> 8, 0), 255)
    return a


SPEC = KernelSpec(
    name="yuv2rgb",
    description="BT.601 fixed-point YCbCr to RGB pixel conversion",
    build=build,
    arrays=arrays,
    golden=golden,
)
