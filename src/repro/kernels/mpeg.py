"""``mpeg`` — MPEG2 motion-compensation style kernel (the paper's Fig. 2
example family: three loads, one store, arithmetic in between).

    out[i] = clip8(((fwd[i] + bwd[i] + 1) >> 1) + resid[i])
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec

if TYPE_CHECKING:
    import numpy as np

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


def arrays(rng: np.random.Generator, trip: int):
    import numpy as np

    return {
        "fwd": rng.integers(0, 256, trip, dtype=np.int64),
        "bwd": rng.integers(0, 256, trip, dtype=np.int64),
        "resid": rng.integers(-64, 64, trip, dtype=np.int64),
        "out": np.zeros(trip, dtype=np.int64),
    }


def golden(a, trip: int):
    import numpy as np

    avg = (a["fwd"][:trip] + a["bwd"][:trip] + 1) >> 1
    a["out"][:trip] = np.clip(avg + a["resid"][:trip], 0, 255)
    return a


SPEC = KernelSpec(
    name="mpeg",
    description="MPEG2 bidirectional motion compensation with rounding and clip",
    build=build,
    arrays=arrays,
    golden=golden,
)
