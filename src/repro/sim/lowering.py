"""Lowering: compiled mapping -> explicit firing program.

A *firing* is one execution of one op or route step for one kernel
iteration, with every operand resolved to either an immediate or a read of
the value some PE produced at an exact earlier cycle.  Lowering a modulo
schedule is mechanical (iteration *i* of an item at flat time *t* fires at
``t + i*II``); having the explicit form lets one simulator core execute
both compiled and PageMaster-transformed schedules.

Both kinds of program come from one *schedule template*
(:func:`schedule_template`): the iteration-independent part of a mapping's
firings, derived once per call and then stamped once per iteration by
:func:`stamp_firings`.  :func:`lower_mapping` stamps it at the compiled
positions; :func:`repro.sim.retarget.retarget_firings` stamps it at the
positions a PageMaster placement assigns.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, NamedTuple, Sequence

from repro.arch.capability import op_class
from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.arch.isa import Opcode
from repro.arch.memory import DataMemory
from repro.compiler.mapping import Mapping, materialized_ops
from repro.dfg.graph import Edge, MemRef
from repro.util.errors import SimulationError

__all__ = [
    "ResolvedRead",
    "GlobalSlot",
    "Firing",
    "lower_mapping",
    "firing_order",
    "resolve_addr",
    "TemplateItem",
    "schedule_template",
    "stamp_firings",
    "check_capable",
]


class ResolvedRead(NamedTuple):
    """Read the value *pe* produced at exactly cycle *cycle* (register-file
    depth = reader cycle - *cycle*)."""

    pe: Coord
    cycle: int


class GlobalSlot(NamedTuple):
    """A value parked in the reserved global storage area, keyed by the DFG
    edge and the consumer iteration it serves."""

    edge_id: int
    iteration: int


class Firing(NamedTuple):
    """One execution of one op/route step for one kernel iteration.

    The records are tuples, so building, reading and sorting the tens of
    thousands a run makes stays in C.  Their ``repr`` is what the golden
    firing digests hash (``tests/test_firing_golden.py``): field names,
    order and defaults are fixed."""

    cycle: int
    pe: Coord
    label: str
    opcode: Opcode
    operands: tuple = ()
    immediate: int | None = None
    addr: int | None = None
    iteration: int = 0
    global_writes: tuple[GlobalSlot, ...] = ()


#: Sort key of a firing program: by cycle, then PE (row-major).
firing_order = attrgetter("cycle", "pe")


def resolve_addr(
    memref, iteration: int, memory: DataMemory, array_prefix: str = ""
) -> int:
    """Absolute address of a symbolic memory reference at *iteration*.

    ``array_prefix`` namespaces the lookup (``"t0/" + name``) so several
    co-resident kernels can share one data memory without name clashes.
    """
    spec = memory.array(array_prefix + memref.array)
    idx = memref.offset + memref.stride * iteration
    if memref.ring is not None:
        idx %= memref.ring
    if not 0 <= idx < spec.length:
        raise SimulationError(
            f"array {memref.array!r} index {idx} out of bounds "
            f"[0,{spec.length}) at iteration {iteration}"
        )
    return spec.base + idx


class _Read(NamedTuple):
    """Operand recipe: the value a DFG edge carries.  Reader iterations
    below ``len(init)`` (the edge distance) take ``init[i]`` as an
    immediate; later ones read what template item *holder* emitted *lag*
    iterations earlier (0 behind a route step, the edge distance behind the
    producer op itself)."""

    holder: int
    lag: int
    init: tuple[int, ...]
    edge_id: int


class TemplateItem(NamedTuple):
    """One line of the schedule template: an op or route step of iteration
    0.  Iteration *i* >= ``first`` fires it at flat time ``time + i*II``;
    ``operands`` holds immediates (folded constants) and :class:`_Read`
    recipes."""

    pe: Coord
    time: int
    stem: str
    opcode: Opcode
    immediate: int | None
    memref: MemRef | None
    first: int
    operands: tuple


def schedule_template(mapping: Mapping) -> list[TemplateItem]:
    """Everything about a mapping's firing program that does not depend on
    the iteration, derived once per call: the non-CONST ops in ``dfg.ops``
    order (constants live in the configuration, §II — they are folded into
    operands, not fired), then every routed edge's steps in ``dfg.edges``
    order.  Route steps go live with the first consumer iteration whose
    carried value is a real produced one (``first`` = edge distance);
    prologue iterations read the edge's ``init`` directly at the consumer.
    """
    dfg = mapping.dfg
    index_of_op = {op_id: k for k, op_id in enumerate(materialized_ops(dfg))}
    # template index of each routed edge's steps, by edge and by (PE, time)
    # position — the latter resolves fanout taps
    steps_of: dict[int, range] = {}
    step_at: dict[tuple[Coord, int], int] = {}
    count = len(index_of_op)
    for e in dfg.edges.values():
        steps = mapping.route(e.id).steps
        if steps:
            steps_of[e.id] = range(count, count + len(steps))
            step_at.update(((s.pe, s.time), count + hop) for hop, s in enumerate(steps))
            count += len(steps)

    def chain_origin(e: Edge) -> _Read:
        """Where *e*'s chain first reads the value: a tapped sibling step
        or the producer."""
        tap = mapping.route(e.id).tap
        if tap is not None:
            return _Read(step_at[(tap.pe, tap.time)], 0, e.init, e.id)
        return _Read(index_of_op[e.src], e.distance, e.init, e.id)

    def operand(e: Edge):
        src = dfg.ops[e.src]
        if src.opcode is Opcode.CONST:
            return src.immediate
        if e.id in steps_of:
            return _Read(steps_of[e.id][-1], 0, e.init, e.id)
        return chain_origin(e)

    items: list[TemplateItem] = []
    for op_id in index_of_op:
        op, p = dfg.ops[op_id], mapping.placement(op_id)
        items.append(
            TemplateItem(
                p.pe, p.time, op.label, op.opcode, op.immediate, op.memref, 0,
                tuple(operand(e) for e in dfg.in_edges(op_id)),
            )
        )
    for e in dfg.edges.values():
        if e.id not in steps_of:
            continue
        read = chain_origin(e)
        for hop, s in enumerate(mapping.route(e.id).steps):
            items.append(
                TemplateItem(
                    s.pe, s.time, f"route{e.id}.{hop}", Opcode.ROUTE, None, None,
                    e.distance, (read,),
                )
            )
            read = _Read(len(items) - 1, 0, e.init, e.id)
    return items


def check_capable(cgra: CGRA, item: TemplateItem, pe: Coord, error: type) -> None:
    """A firing on a PE that cannot execute its op class would be silent
    hardware fiction — refuse to build such a program.  Always passes on a
    homogeneous fabric (``cgra.capability is None``), so callers skip it
    there."""
    cls = op_class(item.opcode)
    if not cgra.supports_id(cls, cgra.grid_index.id_of[pe]):
        raise error(
            f"{item.stem} ({cls.value}) would fire on {pe}, "
            f"which lacks the {cls.value!r} capability"
        )


def stamp_firings(
    items: Sequence[TemplateItem],
    ii: int,
    trip: int,
    memory: DataMemory,
    locate: Callable[[TemplateItem, range], list[tuple[Coord, int]]],
    *,
    start_cycle: int,
    array_prefix: str,
    first_iteration: int,
    readable: Callable[[Coord, Coord, int], bool] | None = None,
    firing_tag: str = "",
) -> list[Firing]:
    """Stamp a schedule template *trip* times.

    ``locate(item, batches)`` gives the (PE, cycle) of *item* for each of
    its live iterations, *batches* being their flat times ``time + i*II``.
    ``readable(reader_pe, holder_pe, wait)`` says whether a value can wait
    *wait* cycles in the holder's rotating file and be read from there;
    when it cannot, the transfer goes through a :class:`GlobalSlot` that
    the holder's firing writes.  ``None`` means every read is a register
    read.
    """
    if trip < 0:
        raise SimulationError(f"trip count must be >= 0, got {trip}")
    if start_cycle < 0:
        raise SimulationError(f"start_cycle must be >= 0, got {start_cycle}")
    if first_iteration < 0:
        raise SimulationError(f"first_iteration must be >= 0, got {first_iteration}")
    # positions[k][i]: where and when item k fires in iteration i — the very
    # read every consumer of that firing's value makes, shared by all of them
    positions = [
        [None] * item.first
        + [
            ResolvedRead(pe, cycle + start_cycle)
            for pe, cycle in locate(
                item,
                range(item.time + item.first * ii, item.time + trip * ii, ii),
            )
        ]
        for item in items
    ]
    width = len(items)
    # firings by (iteration, item), in the order they are listed
    rows: list[Firing | None] = [None] * (trip * width)
    # global fallback transfers: row index of the holder firing -> slots
    pending: dict[int, list[GlobalSlot]] = {}
    for i in range(trip):
        suffix = f"#{i}"
        for k, (_, _, stem, opcode, immediate, memref, first, recipes) in enumerate(
            items
        ):
            if i < first:
                continue
            pe, cycle = positions[k][i]
            operands = []
            for r in recipes:
                if type(r) is not _Read:
                    operands.append(r)
                    continue
                holder, lag, init, edge_id = r
                if i < len(init):
                    operands.append(init[i])
                    continue
                read = positions[holder][i - lag]
                if readable is None or readable(pe, read.pe, cycle - read.cycle):
                    operands.append(read)
                else:
                    slot = GlobalSlot(
                        (firing_tag, edge_id) if firing_tag else edge_id, i
                    )
                    pending.setdefault((i - lag) * width + holder, []).append(slot)
                    operands.append(slot)
            addr = (
                resolve_addr(memref, first_iteration + i, memory, array_prefix)
                if memref is not None
                else None
            )
            rows[i * width + k] = Firing(
                cycle, pe, stem + suffix, opcode, tuple(operands), immediate, addr, i
            )
    for n, slots in pending.items():
        rows[n] = rows[n]._replace(global_writes=tuple(slots))
    firings = [f for f in rows if f is not None]
    firings.sort(key=firing_order)
    return firings


def lower_mapping(
    mapping: Mapping,
    memory: DataMemory,
    trip: int,
    *,
    array_prefix: str = "",
    start_cycle: int = 0,
    first_iteration: int = 0,
) -> list[Firing]:
    """Firing program for *trip* kernel iterations of a compiled mapping.

    ``start_cycle`` shifts the whole program in time (a thread launched
    mid-run); ``array_prefix`` namespaces its arrays in the shared memory;
    ``first_iteration`` offsets memory addressing so a kernel can be
    resumed mid-stream (dynamic reshaping hands execution from one
    schedule to another at an iteration boundary — loop-carried edges then
    carry the boundary state in their ``init`` values).
    """
    items = schedule_template(mapping)
    if mapping.cgra.capability is not None:
        for item in items:
            check_capable(mapping.cgra, item, item.pe, SimulationError)
    return stamp_firings(
        items,
        mapping.ii,
        trip,
        memory,
        lambda item, batches: [(item.pe, batch) for batch in batches],
        start_cycle=start_cycle,
        array_prefix=array_prefix,
        first_iteration=first_iteration,
    )
