"""``swim`` — shallow-water equation update step (SPEC swim style): update
velocity and pressure fields from each other's spatial differences.

    unew[i] = u[i] + ((p[i] - p[i+1]) >> 2)
    pnew[i] = p[i] + ((u[i] - u[i+1]) >> 2)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec

if TYPE_CHECKING:
    import numpy as np

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


def arrays(rng: np.random.Generator, trip: int):
    import numpy as np

    return {
        "u": rng.integers(-128, 128, trip + 1, dtype=np.int64),
        "p": rng.integers(0, 256, trip + 1, dtype=np.int64),
        "unew": np.zeros(trip, dtype=np.int64),
        "pnew": np.zeros(trip, dtype=np.int64),
    }


def golden(a, trip: int):
    u, p = a["u"], a["p"]
    a["unew"][:trip] = u[:trip] + ((p[:trip] - p[1 : trip + 1]) >> 2)
    a["pnew"][:trip] = p[:trip] + ((u[:trip] - u[1 : trip + 1]) >> 2)
    return a


SPEC = KernelSpec(
    name="swim",
    description="shallow-water velocity/pressure coupled update",
    build=build,
    arrays=arrays,
    golden=golden,
)
