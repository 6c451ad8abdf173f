"""The "hier" paged backend: the flat chain ladder plus a one-page probe.

A kernel small enough for one page is best mapped on one page: the flat
chain mapper spreads it along the whole chain and leaves the page-need
passes (:func:`~repro.compiler.paged.shrink_to_page_need`) to find the
one-page mapping again, one ladder per prefix.  This backend asks first.
At every II rung, before the flat attempts, it probes the chain's first
page alone — when the page is 2x2 or larger (a 2x1 page leaves a probe no
lateral routing room, so it would burn its budget at every rung) and the
capacity bound :func:`~repro.compiler.constraints.page_need` says one page
can hold the kernel at that II.  The first base order gets
:data:`~repro.compiler.ems.FULL_BUDGET`, the others
:data:`~repro.compiler.ems.FAIL_FAST_BUDGET`.  A win skips the rung's
whole-chain attempts and leaves page-need minimisation nothing to do.

The probe is attempt 0 of every II rung; attempts 1..N replay the flat
ladder's probes unchanged.  The lattice therefore stays a deterministic
total order that the one ladder driver (:func:`repro.compiler.search.
climb_ladder`) walks in order, and the backend never maps at a higher II
than the flat chain pass.  It is chain-only: it never uses the ring-wrap
link.

The one-page test is :func:`cluster_dfg`.  It keeps the name of the
cluster-then-place step it replaced (a min-cut page partition of the
DFG's SCC blocks, whose multi-page case never won a job; DESIGN.md §12)
because the benchmark in ``perf/`` traces it under that name, as its
``compiler.cluster`` span.
"""

from __future__ import annotations

from repro.arch.cgra import CGRA
from repro.compiler.check import validate_mapping
from repro.compiler.constraints import page_need
from repro.compiler.ems import FAIL_FAST_BUDGET, FULL_BUDGET, EMSMapper, MapperConfig
from repro.compiler.mapping import Mapping
from repro.compiler.paged import (
    PagedMapping, prefix, shrink_to_page_need, spanned_prefix,
)
from repro.compiler.search import climb_ladder
from repro.core.page_schedule import extract_page_schedule
from repro.core.paging import PageLayout
from repro.dfg.graph import DFG
from repro.util.spans import counters, span

__all__ = ["HierMapper", "map_dfg_hier", "cluster_dfg"]


@span("compiler.cluster")
def cluster_dfg(dfg: DFG, layout: PageLayout, ii: int) -> bool:
    """Can *dfg* fit on the first page of *layout* at *ii*, by slot and
    memory-op capacity?  The test that gates the one-page probe."""
    return page_need(dfg, layout, ii) == 1


class HierMapper(EMSMapper):
    """The flat chain mapper of a layout, with one more probe per rung.

    Rung layout: attempt 0 is the one-page probe; attempts
    ``1 .. config.attempts_per_ii`` are the flat chain ladder's attempts
    ``0 .. attempts_per_ii - 1``, bit for bit (same op orders, same
    replayed rng perturbations).  Everything else about the ladder — its
    bounds, so hier and flat start at the same rung; its base orders — is
    the inherited flat mapper's.
    """

    def __init__(
        self,
        cgra: CGRA,
        layout: PageLayout,
        config: MapperConfig | None = None,
        probes=None,
    ) -> None:
        super().__init__(cgra, layout, config, probes)
        # the first page's mappers, by fail-fast budget, built lazily
        self._one_page: dict[bool, EMSMapper] = {}

    def lattice_attempts_per_ii(self) -> int:
        return self.config.attempts_per_ii + 1

    def run_lattice_attempt(
        self, dfg: DFG, start_ii: int, ii: int, attempt: int, orders
    ) -> Mapping | None:
        if attempt == 0:
            counters().hier_attempts += 1
            mapping = self._one_page_attempt(dfg, ii, orders)
            if mapping is not None:
                counters().hier_wins += 1
            return mapping
        counters().hier_flat_attempts += 1
        mapping = super().run_lattice_attempt(
            dfg, start_ii, ii, attempt - 1, orders
        )
        if mapping is not None:
            counters().hier_flat_wins += 1
        return mapping

    def one_page_mapper(self, *, cheap: bool = False) -> EMSMapper:
        """The flat mapper of the first chain page.  *cheap* selects
        :data:`~repro.compiler.ems.FAIL_FAST_BUDGET`: an easy win still
        lands well inside it."""
        mapper = self._one_page.get(cheap)
        if mapper is None:
            mapper = self._one_page[cheap] = EMSMapper(
                self.cgra,
                prefix(self.layout, 1),
                self.config,
                self.probes,
                budget=FAIL_FAST_BUDGET if cheap else FULL_BUDGET,
            )
        return mapper

    def _one_page_attempt(self, dfg: DFG, ii: int, orders) -> Mapping | None:
        self.stuck = None  # until the placer is reached there is no stuck op
        if min(self.layout.shape) < 2 or not cluster_dfg(dfg, self.layout, ii):
            return None
        # the first base order (reverse dataflow: consumers first, so each
        # op's edges route the moment it lands) at full budget, the others
        # fail-fast: a loss costs little on one page
        full = self.one_page_mapper()
        mapping = full._try_map(dfg, ii, list(orders[0]))
        self.stuck = full.stuck  # the primary probe's, whatever follows
        if mapping is not None:
            return mapping
        cheap = self.one_page_mapper(cheap=True)
        for order in orders[1:]:
            mapping = cheap._try_map(dfg, ii, list(order))
            if mapping is not None:
                return mapping
        return None


def map_dfg_hier(
    dfg: DFG,
    cgra: CGRA,
    layout: PageLayout,
    *,
    config: MapperConfig | None = None,
    probes=None,
) -> PagedMapping:
    """Map *dfg* with the hier backend (see the module docstring).

    Entry point the paged compiler dispatches to for
    ``config.backend == "hier"``, with the same signature (the hier
    backend is chain-only: there is no ring fallback).  The widened
    (II, attempt) lattice is climbed by the same ``climb_ladder`` as the
    flat one.
    """
    cfg = config or MapperConfig()
    mapping = climb_ladder(HierMapper(cgra, layout, cfg, probes), dfg)
    # the result lives on the prefix it touches: validate against, and
    # page-schedule on, exactly those pages
    sub = spanned_prefix(mapping, layout)
    validate_mapping(mapping, sub)
    best = PagedMapping(mapping, sub, extract_page_schedule(mapping, sub), layout)
    # When the one-page probe won, the mapping sits on one page and there
    # is nothing left to try.
    return shrink_to_page_need(best, dfg, cgra, layout, cfg, probes)
