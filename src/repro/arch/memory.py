"""On-chip data memory of the CGRA.

The paper's architecture (Fig. 1) has a data memory shared by the array, with
one data bus per row of PEs, plus "a global storage area reserved by the
compiler in the Data Memory".  This module models the word-addressed
memory with a symbol table of named arrays (kernel inputs and outputs live
here).  The *global storage area* that the runtime transformation uses to
carry values between page instances that land on non-adjacent PEs (see
:mod:`repro.core.mirroring` for when that happens) is not carved out of
these words: the simulator keys it by (edge, iteration)
(:class:`repro.sim.lowering.GlobalSlot`).

Bus arbitration (at most one memory operation per row per cycle) is a
*compile-time* resource enforced by the mapper's reservation table and
re-checked by the simulator; the memory itself only does loads and stores.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from dataclasses import dataclass

from repro.util.errors import SimulationError

__all__ = ["ArraySpec", "DataMemory"]


@dataclass(frozen=True)
class ArraySpec:
    """A named array bound into the data memory."""

    name: str
    base: int
    length: int


class DataMemory:
    """Word-addressed data memory with named arrays.

    ``size`` is the number of 32-bit words, held in a signed 64-bit
    ``array``: a load returns a Python int, and :meth:`read_array` and
    :meth:`snapshot` return lists.  Arrays are allocated sequentially from
    address 0 with :meth:`bind_array`.
    """

    def __init__(self, size: int = 1 << 16) -> None:
        if size <= 0:
            raise SimulationError(f"memory size must be positive, got {size}")
        self.size = size
        self._words = array("q", [0]) * size
        self._arrays: dict[str, ArraySpec] = {}
        self._next_base = 0
        self.load_count = 0
        self.store_count = 0

    # -- allocation -------------------------------------------------------------

    def bind_array(self, name: str, values: Iterable[int]) -> ArraySpec:
        """Allocate and initialise a named array from a sequence of
        integers; returns its spec."""
        if name in self._arrays:
            raise SimulationError(f"array {name!r} already bound")
        try:
            data = array("q", values)
        except (TypeError, OverflowError):
            raise SimulationError(
                f"array {name!r} must be a 1-D sequence of integers"
            ) from None
        length = len(data)
        if self._next_base + length > self.size:
            raise SimulationError(
                f"out of data memory binding {name!r} "
                f"({length} words at {self._next_base})"
            )
        spec = ArraySpec(name, self._next_base, length)
        self._words[spec.base : spec.base + length] = data
        self._arrays[name] = spec
        self._next_base += length
        return spec

    # -- access -----------------------------------------------------------------

    def array(self, name: str) -> ArraySpec:
        try:
            return self._arrays[name]
        except KeyError:
            raise SimulationError(f"no array named {name!r}") from None

    def read_array(self, name: str) -> list[int]:
        """A copy of the named array's current contents."""
        spec = self.array(name)
        return self._words[spec.base : spec.base + spec.length].tolist()

    def load(self, addr: int) -> int:
        if not 0 <= addr < self.size:
            raise SimulationError(f"load address {addr} out of range [0,{self.size})")
        self.load_count += 1
        return self._words[addr]

    def store(self, addr: int, value: int) -> None:
        if not 0 <= addr < self.size:
            raise SimulationError(f"store address {addr} out of range [0,{self.size})")
        self.store_count += 1
        self._words[addr] = int(value)

    def snapshot(self) -> dict[str, list[int]]:
        """Contents of every named array, for end-to-end comparisons."""
        return {name: self.read_array(name) for name in self._arrays}
