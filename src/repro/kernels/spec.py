"""Kernel specification: an executable benchmark loop.

Each benchmark of §VII-A is packaged as a :class:`KernelSpec`: the loop
body DFG, a seeded input generator, and an independent *golden* model
written in plain Python.  The golden function validates that the DFG
encodes the intended math; the DFG reference interpreter then serves as
the functional oracle for every mapped/transformed execution.

Arrays are lists of Python ints, drawn from a
:class:`~repro.util.rng.PCG64Stream` (``int_list`` draws what numpy's
``default_rng(seed).integers(low, high, size)`` would).  Input values are
kept small (pixel-ranged) so unbounded integer arithmetic and the
simulator's 32-bit wrapping semantics agree exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.memory import DataMemory
from repro.dfg.graph import DFG
from repro.util.errors import WorkloadError
from repro.util.rng import PCG64Stream

__all__ = ["KernelSpec", "bind_memory"]

Arrays = dict[str, list[int]]
ArraysFn = Callable[[PCG64Stream, int], Arrays]
GoldenFn = Callable[[Arrays, int], Arrays]


@dataclass(frozen=True)
class KernelSpec:
    """One benchmark kernel: ``arrays(rng, trip)`` draws its named input
    and output lists from a :class:`PCG64Stream`, and ``golden(arrays,
    trip)`` fills the outputs in plain Python, a closed-form model that
    never reads the DFG."""

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
        arrays = self.arrays(PCG64Stream(seed), t)
        expected = self.golden({k: list(v) for k, v in arrays.items()}, t)
        return self.build(), arrays, expected


def bind_memory(arrays: Arrays) -> DataMemory:
    """Load a kernel's arrays into a fresh data memory (sorted by name so
    layouts are deterministic)."""
    mem = DataMemory()
    for name in sorted(arrays):
        mem.bind_array(name, arrays[name])
    return mem
