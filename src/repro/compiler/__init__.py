"""CGRA mapping compiler.

Maps a software-pipelined loop DFG onto the CGRA: operations to PEs, data
dependency edges to interconnect paths, all inside a modulo schedule with
initiation interval II (§II of the paper).  The mapper,
:func:`repro.compiler.ems.map_dfg`, is a modulo-scheduling place-and-route
mapper in the style of edge-centric modulo scheduling (EMS, Park et al.),
the baseline compiler the paper builds on.

The *paged* compiler (:func:`repro.compiler.paged.map_dfg_paged`) runs the
same engine with the paper's §VI-B compile-time constraints switched on and
additionally returns the page-level schedule the PageMaster transformation
consumes.  It has two backends (:data:`~repro.compiler.ems.BACKENDS`): the
flat ladder and ``hier``, the same ladder with a one-page probe first on
every II rung.

A mapper knows how to run one (II, attempt) probe; the walk over IIs and
restarts is :func:`repro.compiler.search.climb_ladder`, the single ladder
driver every entry point above calls: one serial walk in the calling
thread, first success wins.
"""

from repro.compiler.mapping import Mapping, Placement, Route, RouteStep
from repro.compiler.mrt import ReservationTable
from repro.compiler.check import validate_mapping
from repro.compiler.ems import BACKENDS, EMSMapper, MapperConfig, map_dfg
from repro.compiler.paged import PagedMapping, map_dfg_paged
from repro.compiler.search import LadderReport, climb_ladder

__all__ = [
    "Mapping",
    "Placement",
    "Route",
    "RouteStep",
    "ReservationTable",
    "validate_mapping",
    "BACKENDS",
    "EMSMapper",
    "MapperConfig",
    "map_dfg",
    "PagedMapping",
    "map_dfg_paged",
    "LadderReport",
    "climb_ladder",
]
