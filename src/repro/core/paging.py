"""CGRA paging (§VI-A of the paper).

The CGRA is conceptually divided into *pages*: "symmetrically equivalent
groups of PEs which allows page folding" (Fig. 4 shows a 4x4 CGRA as four
2x2 tiles or four 4x1 columns).  Pages are purely a compiler concept — no
hardware change — but they fix:

* the granularity at which a schedule can be shrunk or expanded, and
* the *ring order* of pages that the data-flow constraint (§VI-B) is
  expressed against: operations on page *n* may only consume values from
  page *n* or page *n-1* of the previous cycle.

We realise the ring order as a boustrophedon (snake) walk over the tile
grid, which guarantees consecutive pages are physically adjacent, so a
ring-constrained dependency can always ride the 1-cycle mesh interconnect.
Whether the wrap-around pair (last, first) is also adjacent depends on the
tiling and is recorded in :attr:`PageLayout.ring_wrap_adjacent`; the paged
compiler only ever uses a *subset* of the ring and never relies on the wrap
link unless it is physically there.
"""

from __future__ import annotations

import copy
import enum
from dataclasses import dataclass

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.util.errors import ArchitectureError

__all__ = ["Orientation", "PageLayout", "choose_page_shape"]


class Orientation(enum.Enum):
    """Symmetry transform applied to a page's internal mapping when the page
    is folded onto another position (§VI-D: "the internal page mapping must
    be mirrored across the among-page dependency direction")."""

    IDENTITY = "id"
    MIRROR_H = "mirror_h"  # flip across the horizontal axis (rows reverse)
    MIRROR_V = "mirror_v"  # flip across the vertical axis (cols reverse)
    ROT180 = "rot180"

    def apply(self, local: Coord, shape: tuple[int, int]) -> Coord:
        h, w = shape
        r, c = local.row, local.col
        if self is Orientation.IDENTITY:
            return local
        if self is Orientation.MIRROR_H:
            return Coord(h - 1 - r, c)
        if self is Orientation.MIRROR_V:
            return Coord(r, w - 1 - c)
        return Coord(h - 1 - r, w - 1 - c)

    def compose(self, other: "Orientation") -> "Orientation":
        """self applied after other."""
        table = {
            Orientation.IDENTITY: 0,
            Orientation.MIRROR_H: 1,
            Orientation.MIRROR_V: 2,
            Orientation.ROT180: 3,
        }
        inv = {v: k for k, v in table.items()}
        return inv[table[self] ^ table[other]]


def choose_page_shape(
    page_size: int, cgra_rows: int, cgra_cols: int, prefer: str = "square"
) -> tuple[int, int]:
    """Pick a page tile shape (rows, cols) for *page_size* PEs.

    ``prefer='square'`` picks the most square divisor pair that fits the
    grid (2x2 for size 4); ``prefer='column'`` picks the tallest (4x1 for
    size 4 on a 4-row grid), matching the two alternatives of Fig. 4.
    """
    if page_size <= 0:
        raise ArchitectureError(f"page size must be positive, got {page_size}")
    pairs = [
        (h, page_size // h)
        for h in range(1, page_size + 1)
        if page_size % h == 0 and h <= cgra_rows and page_size // h <= cgra_cols
    ]
    if not pairs:
        raise ArchitectureError(
            f"no {page_size}-PE tile fits a {cgra_rows}x{cgra_cols} grid"
        )
    if prefer == "square":
        return min(pairs, key=lambda p: (abs(p[0] - p[1]), -p[0]))
    if prefer == "column":
        return max(pairs, key=lambda p: p[0])
    if prefer == "row":
        return max(pairs, key=lambda p: p[1])
    raise ArchitectureError(f"unknown shape preference {prefer!r}")


@dataclass(frozen=True)
class _Tile:
    origin: Coord  # top-left PE of the tile


class PageLayout:
    """Division of a CGRA into equally shaped pages in snake ring order.

    Pages tile the grid with identical ``shape`` tiles; if the shape does
    not tile the full grid (the paper's 6x6 CGRA with 8-PE pages), the
    maximal whole-tile region is paged and the remaining PEs are reported
    in :attr:`uncovered` (and left unused by the paged compiler).
    """

    def __init__(
        self, cgra: CGRA, shape: tuple[int, int], *, allow_wrap: bool = False
    ) -> None:
        h, w = shape
        self.allow_wrap = allow_wrap
        if h <= 0 or w <= 0:
            raise ArchitectureError(f"bad page shape {shape}")
        if h > cgra.rows or w > cgra.cols:
            raise ArchitectureError(
                f"page shape {h}x{w} larger than {cgra.rows}x{cgra.cols} grid"
            )
        self.cgra = cgra
        self.shape = (h, w)
        tile_rows = cgra.rows // h
        tile_cols = cgra.cols // w
        if tile_rows == 0 or tile_cols == 0:
            raise ArchitectureError(
                f"page shape {h}x{w} does not fit {cgra.rows}x{cgra.cols}"
            )
        # Snake walk over the tile grid: row 0 left-to-right, row 1
        # right-to-left, ... so that consecutive pages share a tile edge.
        tiles: list[_Tile] = []
        for tr in range(tile_rows):
            cols = range(tile_cols) if tr % 2 == 0 else range(tile_cols - 1, -1, -1)
            for tc in cols:
                tiles.append(_Tile(Coord(tr * h, tc * w)))
        self._tiles = tiles
        self.num_pages = len(tiles)
        self.page_size = h * w

        self.page_of: dict[Coord, int] = {}
        self.local_of: dict[Coord, Coord] = {}
        for n, tile in enumerate(tiles):
            for dr in range(h):
                for dc in range(w):
                    pe = Coord(tile.origin.row + dr, tile.origin.col + dc)
                    self.page_of[pe] = n
                    self.local_of[pe] = Coord(dr, dc)
        self.uncovered: tuple[Coord, ...] = tuple(
            c for c in cgra.coords() if c not in self.page_of
        )
        self.ring_wrap_adjacent = self.num_pages > 1 and self._pages_adjacent(
            self.num_pages - 1, 0
        )

    # -- geometry ----------------------------------------------------------------

    def page_origin(self, n: int) -> Coord:
        self._check_page(n)
        return self._tiles[n].origin

    def coords_of_page(self, n: int) -> tuple[Coord, ...]:
        self._check_page(n)
        o = self._tiles[n].origin
        h, w = self.shape
        return tuple(
            Coord(o.row + dr, o.col + dc) for dr in range(h) for dc in range(w)
        )

    def place_local(
        self, n: int, local: Coord, orientation: Orientation = Orientation.IDENTITY
    ) -> Coord:
        """Physical PE for a page-local coordinate under an orientation."""
        self._check_page(n)
        h, w = self.shape
        if not (0 <= local.row < h and 0 <= local.col < w):
            raise ArchitectureError(f"local coord {local} outside page shape {h}x{w}")
        t = orientation.apply(local, self.shape)
        o = self._tiles[n].origin
        return Coord(o.row + t.row, o.col + t.col)

    # -- ring order ----------------------------------------------------------------

    def ring_succ(self, n: int) -> int:
        self._check_page(n)
        return (n + 1) % self.num_pages

    def ring_hop_allowed(self, src_page: int, dst_page: int) -> bool:
        """May a value move from *src_page* to *dst_page* in one cycle under
        the §VI-B data-flow constraint?  Same page is always allowed; the
        forward ring hop is allowed when the pages are physically adjacent.
        The wrap hop (last page -> page 0) is additionally gated on
        ``allow_wrap``: with the default chain topology (a strict *subset*
        of the ring, as §VI-B permits), mappings never use the wrap link,
        which is what makes the optimal grouped fold of
        :class:`~repro.core.pagemaster.PageMaster` applicable whenever the
        target page count divides N."""
        if src_page == dst_page:
            return True
        if dst_page != self.ring_succ(src_page):
            return False
        if dst_page == 0 and self.num_pages > 1 and not self.allow_wrap:
            return False
        return self._pages_adjacent(src_page, dst_page)

    def _pages_adjacent(self, a: int, b: int) -> bool:
        """Physical adjacency: some PE of *a* is a mesh neighbour of some PE
        of *b*."""
        coords_b = set(self.coords_of_page(b))
        for pe in self.coords_of_page(a):
            for nb in self.cgra.neighbors(pe):
                if nb in coords_b:
                    return True
        return False

    def subchain(self, k: int) -> "PageLayout":
        """A layout over only the first *k* pages of the ring order.

        Used by the paged compiler to map a kernel onto the smallest page
        prefix that preserves its II (the paper's Fig. 6 mapping "only uses
        3 pages"); the remaining pages stay free for other threads.  A
        sub-chain starts open (``allow_wrap`` off); :meth:`ring` closes it.
        """
        self._check_page(k - 1)
        sub = object.__new__(PageLayout)
        sub.cgra = self.cgra
        sub.shape = self.shape
        sub.allow_wrap = False
        sub._tiles = self._tiles[:k]
        sub.num_pages = k
        sub.page_size = self.page_size
        sub.page_of = {pe: n for pe, n in self.page_of.items() if n < k}
        sub.local_of = {pe: l for pe, l in self.local_of.items() if pe in sub.page_of}
        sub.uncovered = tuple(
            c for c in self.cgra.coords() if c not in sub.page_of
        )
        sub.ring_wrap_adjacent = k > 1 and sub._pages_adjacent(k - 1, 0)
        return sub

    def ring(self) -> "PageLayout":
        """The same pages with the wrap hop (last page -> page 0) allowed:
        the closed ring, which the paged compiler falls back to when the
        chain cannot map a kernel and the wrap pair is adjacent."""
        ring = copy.copy(self)
        ring.allow_wrap = True
        return ring

    def _check_page(self, n: int) -> None:
        if not 0 <= n < self.num_pages:
            raise ArchitectureError(
                f"page index {n} out of range [0,{self.num_pages})"
            )

    def __repr__(self) -> str:
        h, w = self.shape
        return (
            f"PageLayout({self.cgra.rows}x{self.cgra.cols} into "
            f"{self.num_pages} pages of {h}x{w}"
            f"{', ' + str(len(self.uncovered)) + ' PEs uncovered' if self.uncovered else ''})"
        )
