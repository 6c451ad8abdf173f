"""Benchmark kernel suite (§VII-A): executable media loop bodies."""

from repro.kernels.spec import KernelSpec, bind_memory
from repro.kernels.suite import SUITE, get_kernel, kernel_names

__all__ = [
    "KernelSpec",
    "bind_memory",
    "SUITE",
    "get_kernel",
    "kernel_names",
]
