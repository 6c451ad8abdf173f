"""Rotating register file of a PE.

The paper (§II, §VI-E) requires each PE to carry a small *rotating* register
file: every value a PE produces is pushed into the file, and a reader can
address "the value this PE produced *k* firings ago".  Rotation is what makes
modulo-scheduled code work without explicit move instructions (Rau's rotating
registers), and the paper's architecture-support section states that *N*
rotating registers per PE are what allow a whole-CGRA schedule to be shrunk
onto a single page: while a folded schedule stretches producer-to-consumer
distances from 1 cycle up to ~N cycles, the producing PE keeps the value
alive in its rotating file.

The simulator models the file as a bounded history of produced values indexed
by the cycle of production; :meth:`read_produced_at` enforces the capacity so
any transformed schedule that would need a deeper file than the architecture
provides fails loudly instead of silently reading stale data.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.util.errors import SimulationError

__all__ = ["RotatingRegisterFile"]


class RotatingRegisterFile:
    """Bounded history of the values one PE produced.

    ``depth`` is the number of rotating registers.  ``push`` records the
    value produced in a given cycle; pushes must come in increasing cycle
    order (a PE produces at most one value per cycle).  ``read_produced_at``
    returns the value produced at an earlier cycle, provided fewer than
    ``depth`` newer values have displaced it.
    """

    def __init__(self, depth: int) -> None:
        if depth <= 0:
            raise SimulationError(f"register file depth must be >= 1, got {depth}")
        self.depth = depth
        # cycle of production -> (value, push sequence number); the sequence
        # number makes the depth of a read a subtraction instead of a scan
        self._history: OrderedDict[int, tuple[int, int]] = OrderedDict()
        self._pushes = 0
        self._last_cycle: int | None = None
        self.max_occupancy = 0  # high-water mark, reported as RF pressure

    def push(self, cycle: int, value: int) -> None:
        """Record that this PE produced *value* in *cycle*."""
        if self._last_cycle is not None and cycle <= self._last_cycle:
            raise SimulationError(
                f"register file pushes must be time-ordered: "
                f"cycle {cycle} after {self._last_cycle}"
            )
        self._last_cycle = cycle
        self._pushes += 1
        history = self._history
        history[cycle] = (value, self._pushes)
        if len(history) > self.depth:
            history.popitem(last=False)
        elif len(history) > self.max_occupancy:
            self.max_occupancy = len(history)

    def read_produced_at(self, cycle: int) -> int:
        """Return the value produced at exactly *cycle*.

        Raises :class:`SimulationError` if the value was never produced or
        has already rotated out of the file — i.e. the schedule needs a
        deeper register file than this architecture has.
        """
        try:
            return self._history[cycle][0]
        except KeyError:
            raise SimulationError(
                f"value produced at cycle {cycle} is not in the rotating "
                f"register file (depth {self.depth}); schedule requires more "
                f"rotating registers than the architecture provides"
            ) from None

    def depth_of(self, produced_cycle: int) -> int:
        """How many retained entries are at least as new as the value from
        *produced_cycle* (0 if the value is absent): the register-file
        depth a read of that value requires.  Entries rotate out oldest
        first, so every push since the value's own is still retained."""
        entry = self._history.get(produced_cycle)
        if entry is None:
            return 0
        return self._pushes - entry[1] + 1

    def latest(self) -> int | None:
        """The most recently produced value (the PE's output register)."""
        if not self._history:
            return None
        return next(reversed(self._history.values()))[0]

    def occupancy(self) -> int:
        return len(self._history)

    def clear(self) -> None:
        self._history.clear()
        self._last_cycle = None
