#!/usr/bin/env python3
"""Walk through the PageMaster transformation on the paper's own examples.

* Fig. 6 — a schedule using 3 of 4 pages folded onto a single page: pages
  execute in dependency order, one per cycle, and the intra-page mappings
  are mirrored so producers and consumers land on the same physical PE.
* Fig. 7 — the N=6 -> M=5 zigzag: the first iteration forms the
  "scheduling line" with a tail, later batches are placed by the three
  PlacePage cases.

Run:  python examples/pagemaster_walkthrough.py
"""

from repro import viz
from repro.arch.cgra import CGRA
from repro.core.mirroring import fold_orientations
from repro.core.pagemaster import PageMaster
from repro.core.paging import PageLayout
from repro.core.transform_check import check_placement


def show_placement(title: str, n: int, ii: int, m: int, batches: int) -> None:
    placement = PageMaster(n, ii, m).place(batches=batches)
    check_placement(placement)
    print(f"=== {title}")
    print(viz.render_placement(placement, max_rows=14))
    print()


def main() -> None:
    # Fig. 6: three used pages onto one page — pure sequencing.
    show_placement("Fig. 6 — fold 3 pages onto 1 (grouped)", 3, 1, 1, batches=4)

    # The mirroring that makes the fold work: page n's internal mapping is
    # flipped across the axis of its incoming boundary.
    cgra = CGRA(4, 4)
    layout = PageLayout(cgra, (2, 2))
    orients = fold_orientations(layout)
    print("fold orientations over the 2x2-page snake chain:")
    for n, o in enumerate(orients):
        print(f"  page {n}: {o.value}")
    print()

    # Fig. 7: six pages onto five columns with the zigzag Algorithm 1.
    show_placement("Fig. 7 — N=6 onto M=5 (zigzag Algorithm 1)", 6, 1, 5, batches=6)

    # A non-dividing shrink: watch the column pattern wander while every
    # §VI-C constraint holds.
    show_placement("N=4, II=2 onto M=3 (zigzag)", 4, 2, 3, batches=6)

    # Steady-state effective II across every target size.
    print("=== steady-state II of a 8-page, II=2 schedule, per target M")
    for m in range(1, 9):
        p = PageMaster(8, 2, m).place()
        print(
            f"  M={m}: II_q={float(p.ii_q_effective()):6.2f} "
            f"(bound {float(p.ii_q_bound()):6.2f}, "
            f"strategy {p.strategy}, efficiency {p.efficiency():.2f})"
        )


if __name__ == "__main__":
    main()
