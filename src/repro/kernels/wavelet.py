"""``wavelet`` — one level of the Haar wavelet transform (stride-2 access).

    s[i] = (in[2i] + in[2i+1]) >> 1      (approximation band)
    d[i] = in[2i] - in[2i+1]             (detail band)
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec

if TYPE_CHECKING:
    import numpy as np

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


def arrays(rng: np.random.Generator, trip: int):
    import numpy as np

    return {
        "in": rng.integers(0, 256, 2 * trip, dtype=np.int64),
        "s": np.zeros(trip, dtype=np.int64),
        "d": np.zeros(trip, dtype=np.int64),
    }


def golden(a, trip: int):
    even = a["in"][0 : 2 * trip : 2]
    odd = a["in"][1 : 2 * trip : 2]
    a["s"][:trip] = (even + odd) >> 1
    a["d"][:trip] = even - odd
    return a


SPEC = KernelSpec(
    name="wavelet",
    description="Haar wavelet lifting step with stride-2 streaming",
    build=build,
    arrays=arrays,
    golden=golden,
)
