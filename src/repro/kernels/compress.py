"""``compress`` — DPCM predictive coder (the compression stage of a
lossless codec): emit the prediction residual and track an adaptive
predictor with a loop-carried update.

    diff[i]  = in[i] - pred
    pred'    = pred + (diff[i] >> 1)
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("compress")
    pred = b.placeholder("pred")
    x = b.load("in")
    diff = b.sub(x, pred, name="diff")
    b.store("out", diff)
    half = b.shr(diff, b.const(1), name="half")
    nxt = b.add(pred, half, name="pred_next")
    b.bind_carry(pred, nxt, distance=1, init=(128,))
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {"in": rng.int_list(0, 256, trip), "out": [0] * trip}


def golden(a, trip: int):
    pred = 128
    for i in range(trip):
        diff = a["in"][i] - pred
        a["out"][i] = diff
        pred = pred + (diff >> 1)
    return a


SPEC = KernelSpec(
    name="compress",
    description="DPCM predictive coding with adaptive predictor recurrence",
    build=build,
    arrays=arrays,
    golden=golden,
)
