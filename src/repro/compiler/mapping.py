"""Mapping data model: the compiler's output.

A :class:`Mapping` fixes, for every DFG operation, the PE and *flat* start
time of its iteration-0 firing (iteration *i* fires at ``time + i * II``),
and for every DFG edge the route its value takes through the mesh.

Timing convention (single-cycle PEs, 1-cycle neighbour links):

* op *u* fires at cycle ``c``; its value is readable (from its output
  register) during cycle ``c + 1`` by *u* itself and its mesh neighbours;
* a route step is a ROUTE pseudo-op on some PE that re-emits the value,
  extending its reach by one hop per cycle (the "routing PEs" of §II);
* consumer *v* of edge ``(u, v, distance=d)`` fires at ``t_v`` and reads the
  value of producer iteration ``i - d``; the timing gap in the consumer's
  frame is ``gap = t_v - (t_u - d * II)`` and must be >= 1.  The route for
  the edge has exactly ``gap - 1`` steps, at consumer-frame times
  ``t_u - d*II + 1 .. t_v - 1``.

All slot bookkeeping is modulo II: an op or route step at flat time ``t``
occupies its PE at modulo slot ``t % II``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.dfg.graph import DFG, Edge
from repro.util.errors import MappingError

__all__ = [
    "Placement",
    "RouteStep",
    "Route",
    "Mapping",
    "materialized_ops",
    "materialized_edges",
]


def materialized_ops(dfg: DFG) -> list[int]:
    """Ops that occupy fabric slots.  CONST ops are *not* materialized:
    constants live in the PE's local register file / configuration (§II of
    the paper: the RF stores "constants and temporary values"), so they are
    baked into consumer operands as immediates by the lowering stage."""
    from repro.arch.isa import Opcode

    return [op_id for op_id, op in dfg.ops.items() if op.opcode is not Opcode.CONST]


def materialized_edges(dfg: DFG) -> list[Edge]:
    """Edges that need routing: those whose producer is materialized."""
    from repro.arch.isa import Opcode

    return [
        e
        for e in dfg.edges.values()
        if dfg.ops[e.src].opcode is not Opcode.CONST
    ]


@dataclass(frozen=True)
class Placement:
    """Where and when a DFG op fires (iteration 0)."""

    op_id: int
    pe: Coord
    time: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise MappingError(f"op {self.op_id}: negative start time {self.time}")


class RouteStep(NamedTuple):
    """One routing hop: PE *pe* re-emits the value at consumer-frame time
    *time* (it read the value produced/re-emitted at ``time - 1``); a
    tuple, like :class:`Coord`, as the router makes one per trial step."""

    pe: Coord
    time: int


@dataclass(frozen=True)
class Route:
    """The interconnect path of one DFG edge.

    ``tap`` implements *fanout sharing*: when several edges carry the same
    value (same producer, same loop distance), a later route may start from
    a step of an earlier sibling's route instead of from the producer — in
    hardware, any neighbour can read a routing PE's output, so the chains
    form a tree.  ``steps`` then covers only the path from the tap onward;
    with no steps and a tap, the consumer reads the sibling's step
    directly.
    """

    edge_id: int
    steps: tuple[RouteStep, ...] = ()
    tap: RouteStep | None = None


@dataclass
class Mapping:
    """A complete modulo-scheduled mapping of *dfg* onto *cgra*."""

    cgra: CGRA
    dfg: DFG
    ii: int
    placements: dict[int, Placement] = field(default_factory=dict)
    routes: dict[int, Route] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.ii < 1:
            raise MappingError(f"II must be >= 1, got {self.ii}")

    # -- queries ------------------------------------------------------------------

    @property
    def schedule_length(self) -> int:
        """Flat length of one iteration's schedule (prologue depth driver)."""
        if not self.placements:
            return 0
        return max(p.time for p in self.placements.values()) + 1

    @property
    def stage_count(self) -> int:
        """Number of pipeline stages (kernel iterations in flight)."""
        import math

        return max(1, math.ceil(self.schedule_length / self.ii))

    def placement(self, op_id: int) -> Placement:
        try:
            return self.placements[op_id]
        except KeyError:
            raise MappingError(f"op {op_id} is not placed") from None

    def route(self, edge_id: int) -> Route:
        r = self.routes.get(edge_id)
        return r if r is not None else Route(edge_id)

    def route_origin(self, edge: Edge) -> tuple[Coord, int]:
        """Where this edge's route chain starts reading the value: the tap
        position for shared fanout, else the producer itself."""
        r = self.route(edge.id)
        if r.tap is not None:
            return r.tap.pe, r.tap.time
        src = self.placement(edge.src)
        return src.pe, src.time - edge.distance * self.ii

    def pe_utilization(self) -> float:
        """Fraction of (PE, modulo-slot) pairs doing work — an op or a route
        step — the *U* of the paper's throughput identity ``I = N x U x II``
        (§IV)."""
        busy = {(p.pe, p.time % self.ii) for p in self.placements.values()}
        busy.update(
            (s.pe, s.time % self.ii) for r in self.routes.values() for s in r.steps
        )
        return len(busy) / float(self.cgra.num_pes * self.ii)

    def summary(self) -> str:
        return (
            f"mapping of {self.dfg.name!r} on {self.cgra.rows}x{self.cgra.cols}: "
            f"II={self.ii}, length={self.schedule_length}, "
            f"stages={self.stage_count}, "
            f"routes={sum(len(r.steps) for r in self.routes.values())} steps, "
            f"util={self.pe_utilization():.2f}"
        )
