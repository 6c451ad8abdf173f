"""Kernel specification: an executable benchmark loop.

Each benchmark of §VII-A is packaged as a :class:`KernelSpec`: the loop
body DFG, a seeded input generator, and an independent numpy *golden*
implementation.  The golden function validates that the DFG encodes the
intended math; the DFG reference interpreter then serves as the functional
oracle for every mapped/transformed execution.

Input values are kept small (pixel-ranged) so plain int64 numpy arithmetic
and the simulator's 32-bit wrapping semantics agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.arch.memory import DataMemory
from repro.dfg.graph import DFG
from repro.util.errors import WorkloadError
from repro.util.rng import make_rng

if TYPE_CHECKING:
    import numpy as np

__all__ = ["KernelSpec", "bind_memory"]

ArraysFn = Callable[["np.random.Generator", int], "dict[str, np.ndarray]"]
GoldenFn = Callable[["dict[str, np.ndarray]", int], "dict[str, np.ndarray]"]


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark kernel."""

    name: str
    description: str
    build: Callable[[], DFG]
    arrays: ArraysFn
    golden: GoldenFn
    default_trip: int = 64

    def fresh(self, seed: int, trip: int | None = None):
        """(dfg, arrays, expected) for a seeded run of *trip* iterations."""
        t = trip if trip is not None else self.default_trip
        if t < 1:
            raise WorkloadError(f"trip must be >= 1, got {t}")
        rng = make_rng(seed)
        arrays = self.arrays(rng, t)
        expected = self.golden({k: v.copy() for k, v in arrays.items()}, t)
        return self.build(), arrays, expected


def bind_memory(arrays: dict[str, np.ndarray]) -> DataMemory:
    """Load a kernel's arrays into a fresh data memory (sorted by name so
    layouts are deterministic)."""
    mem = DataMemory()
    for name in sorted(arrays):
        mem.bind_array(name, arrays[name])
    return mem
