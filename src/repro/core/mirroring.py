"""Intra-page mirroring for page folding (§VI-D, Fig. 6).

When the PageMaster transformation stacks page instance *n* onto the same
tile (or an adjacent tile) as its ring predecessor *n-1*, the page's
internal mapping must be mirrored "across the among-page dependency
direction" so producer/consumer PEs line up: if pages *n-1* and *n* were
vertically adjacent in the original layout, page *n*'s mapping is flipped
across the horizontal axis; if horizontally adjacent, across the vertical
axis.  Composing these flips along the ring yields one static orientation
per page, ``fold_orientations``.

With these orientations, whenever two consecutive page instances land in
the *same* column, every inter-instance transfer lands on the *same
physical PE*: a boundary-crossing ring dependency maps producer and
consumer onto one PE (the consumer reads its own rotating register file),
and same-page storage dependencies keep their original self/neighbour
geometry because all instances of a page share one orientation.  Transfers
between instances in *different* columns fall back to the reserved global
storage area when the mirrored positions are not mesh-adjacent; the
simulator counts those.
"""

from __future__ import annotations

from repro.core.paging import Orientation, PageLayout
from repro.util.errors import TransformError

__all__ = ["boundary_axis", "fold_orientations"]


def boundary_axis(layout: PageLayout, a: int, b: int) -> str:
    """Direction of the shared boundary between chain-consecutive pages.

    Returns ``"vertical"`` when the tiles are stacked vertically (the
    dependency crosses a horizontal boundary) and ``"horizontal"`` when
    side by side.
    """
    oa = layout.page_origin(a)
    ob = layout.page_origin(b)
    h, w = layout.shape
    if oa.col == ob.col and abs(oa.row - ob.row) == h:
        return "vertical"
    if oa.row == ob.row and abs(oa.col - ob.col) == w:
        return "horizontal"
    raise TransformError(
        f"pages {a} and {b} are not chain-adjacent tiles "
        f"(origins {oa} and {ob})"
    )


def fold_orientations(layout: PageLayout) -> list[Orientation]:
    """One orientation per ring index: page 0 keeps identity, page *n*
    composes page *n-1*'s orientation with the mirror across its incoming
    boundary axis."""
    out = [Orientation.IDENTITY]
    for n in range(1, layout.num_pages):
        axis = boundary_axis(layout, n - 1, n)
        mirror = (
            Orientation.MIRROR_H if axis == "vertical" else Orientation.MIRROR_V
        )
        out.append(mirror.compose(out[-1]))
    return out
