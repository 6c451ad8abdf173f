"""Retargeting: paged mapping + PageMaster placement -> transformed firings.

This is the runtime half of the paper's contribution, made executable.
Given a ring-constrained mapping of a kernel on all *N* pages and a
:class:`~repro.core.pagemaster.PagePlacement` onto *M* columns, build the
explicit firing program of the shrunken schedule on a concrete chain of
*M* physical page tiles:

* every page instance keeps its internal mapping, re-oriented by the fold
  mirroring of :mod:`repro.core.mirroring`;
* each inter-instance transfer is resolved to the cheapest mechanism that
  physically works: a rotating-register read of the holding PE (same PE or
  a mesh neighbour — the §VI-E architectural support), else a round trip
  through the reserved global storage area of the data memory;
* every firing's cycle comes from the placement, so the simulated cycle
  count is exactly the transformed schedule's makespan;
* fold mirroring knows nothing about PE capabilities, so on a
  heterogeneous fabric every physical PE an item lands on is checked
  against the item's op class, and a fold that would fire an op where it
  cannot execute is refused (:class:`~repro.util.errors.TransformError`).

The program is the mapping's schedule template
(:func:`repro.sim.lowering.schedule_template`) stamped once per iteration;
only the locate step — placement slot and re-oriented tile position instead
of the compiled PE and time — differs from :func:`~repro.sim.lowering.
lower_mapping`.

Functional equivalence with the untransformed mapping (and with the DFG
reference interpreter) is checked by the integration tests for every
kernel and every legal M.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.interconnect import Coord
from repro.arch.memory import DataMemory
from repro.compiler.paged import PagedMapping
from repro.core.mirroring import fold_orientations
from repro.core.pagemaster import PagePlacement
from repro.sim.lowering import (
    Firing,
    TemplateItem,
    check_capable,
    schedule_template,
    stamp_firings,
)
from repro.util.errors import TransformError

__all__ = ["required_batches", "retarget_firings"]


def required_batches(mapping, trip: int) -> int:
    """How many original cycles (batches) a *trip*-iteration run spans."""
    if trip <= 0:
        return 0
    return mapping.schedule_length + (trip - 1) * mapping.ii


def retarget_firings(
    paged: PagedMapping,
    placement: PagePlacement,
    target_pages: Sequence[int],
    memory: DataMemory,
    trip: int,
    *,
    rf_limit: int | None = None,
    array_prefix: str = "",
    start_cycle: int = 0,
    first_iteration: int = 0,
    firing_tag: str = "",
) -> list[Firing]:
    """Build the firing program of the transformed schedule.

    ``target_pages`` lists the physical tiles (layout ring indices) backing
    columns 0..M-1; they must be chain-contiguous so adjacent columns are
    mesh-adjacent.  ``rf_limit`` caps how many cycles a value may wait in a
    rotating register file before the transfer is routed through global
    storage instead (defaults to the architecture's ``rf_depth``; the cycle
    distance is a safe upper bound on the file occupancy).  For
    co-residency, ``array_prefix`` namespaces the kernel's arrays in a
    shared memory, ``start_cycle`` shifts the program in time, and
    ``firing_tag`` disambiguates global-storage slots between threads.
    """
    mapping, layout = paged.mapping, paged.layout
    full = paged.full_layout or layout
    ii = mapping.ii
    m = placement.m
    if len(target_pages) != m:
        raise TransformError(
            f"placement has {m} columns but {len(target_pages)} target pages"
        )
    if placement.n_pages != layout.num_pages or placement.ii_p != ii:
        raise TransformError(
            f"placement is for N={placement.n_pages}, II={placement.ii_p}; "
            f"mapping has N={layout.num_pages}, II={ii}"
        )
    for x in range(m - 1):
        if not full._pages_adjacent(target_pages[x], target_pages[x + 1]):
            raise TransformError(
                f"target pages {target_pages[x]} and {target_pages[x + 1]} "
                f"are not physically adjacent"
            )
    need = required_batches(mapping, trip)
    if placement.batches < need:
        raise TransformError(
            f"placement covers {placement.batches} batches, run needs {need}"
        )

    if rf_limit is None:
        rf_limit = mapping.cgra.rf_depth
    cgra, slots = mapping.cgra, placement.slots
    orients = fold_orientations(layout)
    tile_orients = fold_orientations(full)

    def locate(item: TemplateItem, batches: range) -> list[tuple[Coord, int]]:
        """Transformed (physical PE, cycle) of *item* at each original
        cycle in *batches*: the cycle and column come from the placement,
        the PE from the item's page-local position re-oriented on that
        column's tile.  The orientation is relative to the tile: undo the
        page's own fold orientation, then apply the target tile's, so a
        page that lands on its own tile keeps its compiled PEs."""
        page, local = layout.page_of[item.pe], layout.local_of[item.pe]
        tiles = [
            full.place_local(
                target, local, tile_orients[target].compose(orients[page])
            )
            for target in target_pages
        ]
        hits = [slots[(page, batch)] for batch in batches]
        if cgra.capability is not None:
            for col in sorted({col for col, _ in hits}):
                check_capable(cgra, item, tiles[col], TransformError)
        return [(tiles[col], cycle) for col, cycle in hits]

    adjacent: dict[tuple[Coord, Coord], bool] = {}  # memo over physical PE pairs

    def readable(reader: Coord, holder: Coord, wait: int) -> bool:
        """A rotating-register read works from the same PE or a mesh
        neighbour, for as long as the file keeps the value."""
        if wait > rf_limit:
            return False
        pair = (reader, holder)
        near = adjacent.get(pair)
        if near is None:
            near = adjacent[pair] = cgra.adjacent_or_same(reader, holder)
        return near

    return stamp_firings(
        schedule_template(mapping),
        ii,
        trip,
        memory,
        locate,
        start_cycle=start_cycle,
        array_prefix=array_prefix,
        first_iteration=first_iteration,
        readable=readable,
        firing_tag=firing_tag,
    )
