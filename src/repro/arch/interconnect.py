"""Mesh interconnect geometry of the CGRA.

The paper's CGRA (Fig. 1) is a 2-D grid of PEs where each PE "can operate on
the results of its neighboring PEs" in the next cycle: a plain 4-neighbour
mesh.  This module owns coordinates, the neighbourhood relation, and
distance queries; it is purely geometric — slot occupancy lives in the
compiler's reservation tables.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = ["Coord", "GridIndex"]


class Coord(NamedTuple):
    """Position of a PE in the grid: row-major, (row, col).

    A tuple, so the hashing, equality and ordering that every simulator
    and compiler dict, set and sort runs on it stay in C."""

    row: int
    col: int

    def manhattan(self, other: "Coord") -> int:
        return abs(self.row - other.row) + abs(self.col - other.col)

    def __repr__(self) -> str:  # compact, used heavily in traces
        return f"({self.row},{self.col})"


#: Neighbour order: up, down, left, right.  Candidate order is part of the
#: mapper's observable behaviour — artifacts are content-addressed, so this
#: order must never drift.
_DELTAS = ((-1, 0), (1, 0), (0, -1), (0, 1))


class GridIndex:
    """The ``rows x cols`` 4-neighbour mesh, as integer tables.

    The compiler's inner loops (reservation lookups, route search) run
    millions of state expansions per kernel; hashing ``Coord`` pairs
    and recomputing distances there dominates cold-compile time.  This
    index precomputes, once per fabric:

    * ``coords`` / ``id_of`` — the Coord <-> integer PE id bijection
      (row-major: id ``row * cols + col``);
    * ``neighbor_ids`` — each PE's mesh neighbours in :data:`_DELTAS`
      order; ``reach1_ids`` — the PEs whose output it can read this
      cycle: itself first (the Fig. 1 datapath feeds the RF back to the
      ALU inputs), then its neighbours;
    * ``manhattan`` — the all-pairs Manhattan distance matrix (the router's
      pruning bound, the placer's anchor metric, and on a mesh the hop
      distance).

    Everything is a flat tuple of tuples: reads are two indexed loads, no
    hashing anywhere.
    """

    def __init__(self, rows: int, cols: int) -> None:
        self.num_pes = rows * cols
        self.coords: tuple[Coord, ...] = tuple(
            Coord(r, c) for r in range(rows) for c in range(cols)
        )
        self.id_of: dict[Coord, int] = {c: i for i, c in enumerate(self.coords)}
        self.neighbor_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(
                (r + dr) * cols + c + dc
                for dr, dc in _DELTAS
                if 0 <= r + dr < rows and 0 <= c + dc < cols
            )
            for r, c in self.coords
        )
        self.reach1_ids: tuple[tuple[int, ...], ...] = tuple(
            (i,) + nbrs for i, nbrs in enumerate(self.neighbor_ids)
        )
        self.manhattan: tuple[tuple[int, ...], ...] = tuple(
            tuple(a.manhattan(b) for b in self.coords) for a in self.coords
        )
