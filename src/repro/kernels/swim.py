"""``swim`` — shallow-water equation update step (SPEC swim style): update
velocity and pressure fields from each other's spatial differences.

    unew[i] = u[i] + ((p[i] - p[i+1]) >> 2)
    pnew[i] = p[i] + ((u[i] - u[i+1]) >> 2)
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("swim")
    u0 = b.load("u", offset=0)
    u1 = b.load("u", offset=1)
    p0 = b.load("p", offset=0)
    p1 = b.load("p", offset=1)
    dp = b.shr(b.sub(p0, p1, name="dp"), b.const(2), name="dp4")
    du = b.shr(b.sub(u0, u1, name="du"), b.const(2), name="du4")
    b.store("unew", b.add(u0, dp, name="u_upd"))
    b.store("pnew", b.add(p0, du, name="p_upd"))
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {
        "u": rng.int_list(-128, 128, trip + 1),
        "p": rng.int_list(0, 256, trip + 1),
        "unew": [0] * trip,
        "pnew": [0] * trip,
    }


def golden(a, trip: int):
    u, p = a["u"], a["p"]
    for i in range(trip):
        a["unew"][i] = u[i] + ((p[i] - p[i + 1]) >> 2)
        a["pnew"][i] = p[i] + ((u[i] - u[i + 1]) >> 2)
    return a


SPEC = KernelSpec(
    name="swim",
    description="shallow-water velocity/pressure coupled update",
    build=build,
    arrays=arrays,
    golden=golden,
)
