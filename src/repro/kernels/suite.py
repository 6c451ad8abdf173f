"""The benchmark suite registry.

The paper (§VII-A) evaluates "a set of 11 benchmarks, including video
decoding e.g., mpeg, yuv2rgb, highly parallel applications e.g., Sor,
Compress, and filters e.g., Gsr, Laplace, Lowpass, Swim, Sobel, Wavelet".
It names ten; we add ``fft`` as the eleventh representative media kernel
(documented in DESIGN.md).
"""

from __future__ import annotations

from dataclasses import replace

from repro.kernels import (
    compress,
    fft,
    gsr,
    laplace,
    lowpass,
    mpeg,
    sobel,
    sor,
    swim,
    wavelet,
    yuv2rgb,
)
from repro.kernels.spec import KernelSpec
from repro.util.errors import WorkloadError
from repro.util.spans import span

__all__ = ["SUITE", "kernel_names", "get_kernel"]

#: Each spec's ``build`` is a ``kernels.build`` span.
SUITE: dict[str, KernelSpec] = {
    spec.name: replace(spec, build=span("kernels.build")(spec.build))
    for spec in (
        mpeg.SPEC,
        yuv2rgb.SPEC,
        sor.SPEC,
        compress.SPEC,
        gsr.SPEC,
        laplace.SPEC,
        lowpass.SPEC,
        swim.SPEC,
        sobel.SPEC,
        wavelet.SPEC,
        fft.SPEC,
    )
}


def kernel_names() -> list[str]:
    """All benchmark names, in the paper's listing order."""
    return list(SUITE)


def get_kernel(name: str) -> KernelSpec:
    try:
        return SUITE[name]
    except KeyError:
        raise WorkloadError(
            f"unknown kernel {name!r}; available: {', '.join(SUITE)}"
        ) from None
