"""The paged compiler: baseline engine + the paper's compile-time constraints.

``map_dfg_paged`` runs the EMS-style mapper on a page layout — which
restricts it to the page-covered PEs, the ring topology and the fold-safe
banked bus model (:mod:`repro.compiler.constraints`) — and wraps the
result with its :class:`~repro.core.page_schedule.PageSchedule`, the
page-level view ``P = {p_(n,t)}`` that the PageMaster transformation
(§VI-D) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.arch.cgra import CGRA
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import page_need
from repro.compiler.ems import EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping
from repro.compiler.search import climb_ladder
from repro.core.page_schedule import PageSchedule, extract_page_schedule
from repro.core.paging import PageLayout
from repro.util.errors import LadderExhausted

__all__ = ["PagedMapping", "map_dfg_paged", "spanned_prefix"]


@dataclass
class PagedMapping:
    """A ring-constrained mapping together with its page-level schedule.

    ``layout`` covers exactly the pages the mapping uses (a prefix
    sub-chain after page-need minimisation); ``full_layout`` is the whole
    array's paging, which the runtime uses to place the schedule on *any*
    contiguous page segment.
    """

    mapping: Mapping
    layout: PageLayout
    page_schedule: PageSchedule
    full_layout: PageLayout | None = None

    def __post_init__(self) -> None:
        if self.full_layout is None:
            self.full_layout = self.layout

    @property
    def ii(self) -> int:
        return self.mapping.ii

    @property
    def wrap_used(self) -> bool:
        """Does the schedule depend on the ring-wrap link (last page feeding
        page 0)?  Wrap-free schedules unlock the optimal grouped fold."""
        last = self.layout.num_pages - 1
        return any(
            src[0] == last and dst[0] == 0 and kind == "ring"
            for (src, dst, kind) in self.page_schedule.deps
        )

    @property
    def pages_used(self) -> int:
        """Pages the mapping occupies.  The compiler minimises this subject
        to preserving the II (§VII-B: "in the cases where schedules do not
        use the entire CGRA ... the thread is simply scheduled to the
        unused portion"), so it doubles as the kernel's page *need*."""
        return self.layout.num_pages

    def summary(self) -> str:
        return (
            f"{self.mapping.summary()} | {self.layout.num_pages} pages of "
            f"{self.layout.shape[0]}x{self.layout.shape[1]}"
        )


def map_dfg_paged(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    *,
    config: MapperConfig | None = None,
    search_log=None,
    probes=None,
) -> PagedMapping:
    """Map *dfg* onto the paged CGRA under the §VI-B constraints.

    The mapper first tries the *chain* topology (ring minus the wrap link
    — a legal subset per §VI-B — which makes the optimal grouped fold
    available for every divisor page count).  If that ladder is exhausted
    and the layout's wrap pair is physically adjacent, it retries with the
    ring closed over the same pages (:meth:`~repro.core.paging.PageLayout.
    ring`); the resulting mapping may then only be shrunk with the
    zigzag transformation.  A kernel that maps on neither at or below the
    II ceiling (:meth:`~repro.compiler.ems.EMSMapper.ladder_rungs`) raises
    :class:`~repro.util.errors.LadderExhausted`.  Every mapping is checked
    by :func:`~repro.compiler.check.validate_mapping` against the layout
    it was mapped on.

    The winner is stored on the page *prefix* it spans
    (:func:`spanned_prefix`) and the compiler then tries to re-map the
    kernel onto a smaller prefix at the achieved II — the
    paper's Fig. 6 mapping "only uses 3 pages", and §VII-B schedules other
    threads onto the unused portion without any transformation.  The
    returned mapping's layout covers exactly :attr:`PagedMapping.pages_used`
    pages, each of which it touches.

    Every inner (II, attempt) ladder — chain pass, ring fallback,
    page-minimisation passes — is one :func:`~repro.compiler.search.
    climb_ladder` call, appending its :class:`~repro.compiler.search.
    LadderReport` to ``search_log``; every mapper they build shares probe
    outcomes through *probes* (the :class:`~repro.compiler.search.DfgProbes`
    of *dfg*) when given.
    """
    config = config or MapperConfig()
    if config.backend == "hier":
        # the chain ladder with a one-page probe first on every rung, so
        # it can only match or beat the chain pass — see repro.compiler.hier.
        from repro.compiler.hier import map_dfg_hier

        return map_dfg_hier(
            dfg, cgra, layout, config=config, search_log=search_log, probes=probes
        )
    best = _map_topologies(dfg, cgra, layout, config, search_log, probes)
    return shrink_to_page_need(best, dfg, cgra, layout, config, search_log, probes)


def shrink_to_page_need(
    best: PagedMapping,
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    config: MapperConfig,
    search_log,
    probes=None,
) -> PagedMapping:
    """Page-need minimisation, shared by both backends: re-map *dfg* with
    the flat ladder onto ever larger chain prefixes of *layout* below the
    span of *best*, from the capacity lower bound (:func:`~repro.compiler.
    constraints.page_need`) up, and return the first that maps at
    ``best.ii``, on the prefix it spans (else *best*).  A prefix that
    cannot hold the kernel — by capacity or capability — fails its ladder."""
    tight = replace(config, max_ii=best.ii, backend="flat")
    for k in range(page_need(dfg, layout, best.ii), best.pages_used):
        try:
            return _map_once(
                dfg, cgra, layout.subchain(k), tight, search_log, probes,
                full_layout=layout,
            )
        except LadderExhausted:
            continue
    return best


def prefix(layout: PageLayout, k: int) -> PageLayout:
    """The first *k* chain pages of *layout* (*layout* itself for all)."""
    return layout.subchain(k) if k < layout.num_pages else layout


def spanned_prefix(mapping: Mapping, layout: PageLayout) -> PageLayout:
    """The chain prefix of *layout* the mapping actually touches
    (placements and route steps): its page need, read off what was mapped.
    A ring mapping that uses the wrap link touches the last page, so it
    keeps the whole ring."""
    pes = [p.pe for p in mapping.placements.values()]
    pes += [s.pe for r in mapping.routes.values() for s in r.steps]
    return prefix(layout, 1 + max(layout.page_of[pe] for pe in pes))


def _map_topologies(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    config: MapperConfig,
    search_log=None,
    probes=None,
) -> PagedMapping:
    """The chain ladder, then — where the wrap pair is physically adjacent
    — the ladder of the ring closed over the same pages (the only home of
    a recurrence wider than a page), both to the same II ceiling."""
    try:
        return _map_once(dfg, cgra, layout, config, search_log, probes)
    except LadderExhausted:
        if layout.allow_wrap or not layout.ring_wrap_adjacent:
            raise
    return _map_once(dfg, cgra, layout.ring(), config, search_log, probes)


def _map_once(
    dfg,
    cgra: CGRA,
    layout: PageLayout,
    config,
    search_log=None,
    probes=None,
    full_layout: PageLayout | None = None,
) -> PagedMapping:
    """Climb one ladder on *layout* and store the winner on the prefix of
    *layout* it touches."""
    mapping = climb_ladder(EMSMapper(cgra, layout, config, probes), dfg, log=search_log)
    full_layout = full_layout or layout
    layout = spanned_prefix(mapping, layout)
    validate_mapping(mapping, layout)
    schedule = extract_page_schedule(mapping, layout)
    return PagedMapping(mapping, layout, schedule, full_layout)
