"""Mesh interconnect geometry of the CGRA.

The paper's CGRA (Fig. 1) is a 2-D grid of PEs where each PE "can operate on
the results of its neighboring PEs" in the next cycle.  This module owns
coordinates, the neighbourhood relation, and distance queries; it is purely
geometric — slot occupancy lives in the compiler's reservation tables.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, NamedTuple

from repro.util.errors import ArchitectureError

__all__ = ["Coord", "GridIndex", "Interconnect"]


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


class GridIndex:
    """Immutable integer view of one :class:`Interconnect`.

    The compiler's inner loops (reservation lookups, route search) run
    millions of state expansions per kernel; hashing ``Coord`` pairs
    and recomputing distances there dominates cold-compile time.  This
    index precomputes, once per fabric:

    * ``coords`` / ``id_of`` — the Coord <-> integer PE id bijection
      (row-major, identical to :meth:`Interconnect.index`);
    * ``neighbor_ids`` / ``reach1_ids`` — the adjacency lists as tuples of
      int ids, in exactly the order :meth:`Interconnect.neighbors` /
      :meth:`Interconnect.reachable_in_one` yield them (candidate order is
      part of the mapper's observable behaviour — artifacts are
      content-addressed, so iteration order must never drift);
    * ``manhattan`` — the all-pairs Manhattan distance matrix (the router's
      pruning bound and the placer's anchor metric);
    * ``hop_dist`` — the all-pairs true hop-distance matrix (BFS over the
      actual links, so it respects ``diagonal``/``torus`` flavours).

    Everything is a flat tuple of tuples: reads are two indexed loads, no
    hashing anywhere.
    """

    def __init__(self, ic: "Interconnect") -> None:
        self.rows = ic.rows
        self.cols = ic.cols
        self.num_pes = ic.num_pes
        self.coords: tuple[Coord, ...] = tuple(ic.coords())
        self.id_of: dict[Coord, int] = {c: i for i, c in enumerate(self.coords)}
        self.neighbor_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(self.id_of[n] for n in ic.neighbors(c)) for c in self.coords
        )
        self.reach1_ids: tuple[tuple[int, ...], ...] = tuple(
            (i,) + nbrs for i, nbrs in enumerate(self.neighbor_ids)
        )
        self.manhattan: tuple[tuple[int, ...], ...] = tuple(
            tuple(a.manhattan(b) for b in self.coords) for a in self.coords
        )
        self.hop_dist: tuple[tuple[int, ...], ...] = tuple(
            self._bfs_dists(i) for i in range(self.num_pes)
        )

    def _bfs_dists(self, src: int) -> tuple[int, ...]:
        dist = [-1] * self.num_pes
        dist[src] = 0
        q = deque([src])
        while q:
            u = q.popleft()
            for v in self.neighbor_ids[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    q.append(v)
        return tuple(dist)


class Interconnect:
    """2-D mesh neighbourhood over an ``rows x cols`` grid.

    ``diagonal=True`` adds the 8-neighbourhood used by some CGRAs
    (e.g. MorphoSys intra-quadrant links); the paper's experiments use the
    plain 4-neighbour mesh, which is the default.  ``torus=True`` wraps the
    edges.  A PE is always considered connected to itself: a PE can consume
    its own previous output (the Fig. 1 datapath feeds the RF back to the
    ALU inputs).
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        *,
        diagonal: bool = False,
        torus: bool = False,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise ArchitectureError(f"grid must be positive, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        self.diagonal = diagonal
        self.torus = torus
        self._neighbors: dict[Coord, tuple[Coord, ...]] = {}
        for c in self.coords():
            self._neighbors[c] = tuple(self._compute_neighbors(c))
        self._grid_index: GridIndex | None = None

    # -- construction helpers -------------------------------------------------

    def _compute_neighbors(self, c: Coord) -> Iterator[Coord]:
        deltas = [(-1, 0), (1, 0), (0, -1), (0, 1)]
        if self.diagonal:
            deltas += [(-1, -1), (-1, 1), (1, -1), (1, 1)]
        for dr, dc in deltas:
            r, k = c.row + dr, c.col + dc
            if self.torus:
                yield Coord(r % self.rows, k % self.cols)
            elif 0 <= r < self.rows and 0 <= k < self.cols:
                yield Coord(r, k)

    # -- queries ---------------------------------------------------------------

    def coords(self) -> Iterator[Coord]:
        """All PE coordinates in row-major order."""
        for r in range(self.rows):
            for c in range(self.cols):
                yield Coord(r, c)

    @property
    def num_pes(self) -> int:
        return self.rows * self.cols

    def contains(self, c: Coord) -> bool:
        return 0 <= c.row < self.rows and 0 <= c.col < self.cols

    def neighbors(self, c: Coord) -> tuple[Coord, ...]:
        """Neighbouring PEs of *c* (not including *c* itself)."""
        try:
            return self._neighbors[c]
        except KeyError:
            raise ArchitectureError(f"{c} outside {self.rows}x{self.cols} grid")

    def reachable_in_one(self, c: Coord) -> tuple[Coord, ...]:
        """PEs whose output *c* can read this cycle: self plus neighbours."""
        return (c,) + self.neighbors(c)

    def adjacent_or_same(self, a: Coord, b: Coord) -> bool:
        """True if *b*'s output register is readable by *a* (1-hop model)."""
        return a == b or b in self._neighbors[a]

    @property
    def grid_index(self) -> GridIndex:
        """The integer view of this fabric, built once on first use."""
        if self._grid_index is None:
            self._grid_index = GridIndex(self)
        return self._grid_index

    def index(self, c: Coord) -> int:
        """Row-major linear index of *c*."""
        if not self.contains(c):
            raise ArchitectureError(f"{c} outside {self.rows}x{self.cols} grid")
        return c.row * self.cols + c.col

    def coord(self, index: int) -> Coord:
        """Inverse of :meth:`index`."""
        if not 0 <= index < self.num_pes:
            raise ArchitectureError(f"PE index {index} out of range")
        return Coord(index // self.cols, index % self.cols)
