"""``laplace`` — 1-D Laplacian (second difference) edge filter.

    out[i] = in[i] + in[i+2] - 2*in[i+1]
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec

if TYPE_CHECKING:
    import numpy as np

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


def arrays(rng: np.random.Generator, trip: int):
    import numpy as np

    return {
        "in": rng.integers(0, 256, trip + 2, dtype=np.int64),
        "out": np.zeros(trip, dtype=np.int64),
    }


def golden(a, trip: int):
    src = a["in"]
    a["out"][:trip] = src[:trip] + src[2 : trip + 2] - 2 * src[1 : trip + 1]
    return a


SPEC = KernelSpec(
    name="laplace",
    description="1-D Laplacian second-difference filter",
    build=build,
    arrays=arrays,
    golden=golden,
)
