"""``fft`` — radix-2 decimation-in-time butterfly over complex fixed-point
streams (Q7 twiddle factors).

    t_re = (b_re*w_re - b_im*w_im) >> 7
    t_im = (b_re*w_im + b_im*w_re) >> 7
    x[i] = a + t;   y[i] = a - t          (4 outputs: re/im of each)
"""

from __future__ import annotations

from repro.dfg.builder import DFGBuilder
from repro.kernels.spec import KernelSpec
from repro.util.rng import PCG64Stream

__all__ = ["SPEC"]


def build():
    b = DFGBuilder("fft")
    ar = b.load("a_re")
    ai = b.load("a_im")
    br = b.load("b_re")
    bi = b.load("b_im")
    wr = b.load("w_re")
    wi = b.load("w_im")
    tr = b.shr(
        b.sub(b.mul(br, wr, name="brwr"), b.mul(bi, wi, name="biwi"), name="tr_raw"),
        b.const(7),
        name="t_re",
    )
    ti = b.shr(
        b.add(b.mul(br, wi, name="brwi"), b.mul(bi, wr, name="biwr"), name="ti_raw"),
        b.const(7),
        name="t_im",
    )
    b.store("x_re", b.add(ar, tr, name="x_re"))
    b.store("x_im", b.add(ai, ti, name="x_im"))
    b.store("y_re", b.sub(ar, tr, name="y_re"))
    b.store("y_im", b.sub(ai, ti, name="y_im"))
    return b.build()


def arrays(rng: PCG64Stream, trip: int):
    return {
        "a_re": rng.int_list(-128, 128, trip),
        "a_im": rng.int_list(-128, 128, trip),
        "b_re": rng.int_list(-128, 128, trip),
        "b_im": rng.int_list(-128, 128, trip),
        "w_re": rng.int_list(-128, 128, trip),
        "w_im": rng.int_list(-128, 128, trip),
        "x_re": [0] * trip,
        "x_im": [0] * trip,
        "y_re": [0] * trip,
        "y_im": [0] * trip,
    }


def golden(a, trip: int):
    for i in range(trip):
        br, bi = a["b_re"][i], a["b_im"][i]
        wr, wi = a["w_re"][i], a["w_im"][i]
        tr = (br * wr - bi * wi) >> 7
        ti = (br * wi + bi * wr) >> 7
        a["x_re"][i] = a["a_re"][i] + tr
        a["x_im"][i] = a["a_im"][i] + ti
        a["y_re"][i] = a["a_re"][i] - tr
        a["y_im"][i] = a["a_im"][i] - ti
    return a


SPEC = KernelSpec(
    name="fft",
    description="radix-2 FFT butterfly with Q7 twiddles (10 memory ops)",
    build=build,
    arrays=arrays,
    golden=golden,
)
