"""Cycle-accurate functional execution of firing programs.

Executes a list of :class:`~repro.sim.lowering.Firing` records against a
CGRA description and a data memory, enforcing the architectural contracts:

* at most one firing per (PE, cycle);
* memory firings respect the banked bus capacity per segment per cycle;
* every operand read must hit a value still present in the producing PE's
  rotating register file (depth = ``cgra.rf_depth``) — this is how the
  §VI-E requirement ("N rotating registers in each PE") is checked, and
  the maximum depth actually used is reported;
* global-storage round trips (PageMaster fallback transfers) are tracked
  and counted as traffic to the reserved area of the data memory;
* a load and a store to the same address in the same cycle is rejected as
  a hazard (the order would be undefined in hardware).

The rotating register files (§II, §VI-E) are kept here.  Every value a PE
produces is pushed into its file, and a reader addresses "the value this
PE produced *k* firings ago".  Rotation is what makes modulo-scheduled
code work without explicit move instructions (Rau's rotating registers),
and the paper's architecture-support section states that *N* rotating
registers per PE are what allow a whole-CGRA schedule to be shrunk onto a
single page: while a folded schedule stretches producer-to-consumer
distances from 1 cycle up to ~N cycles, the producing PE keeps the value
alive in its file.  Each PE's file is its values by production cycle,
each numbered by the PE's push count at the time, so the depth a read
reaches is ``pushes - number + 1``; a read deeper than the file fails
loudly instead of silently reading stale data.

The result bundles cycle counts and instrumentation for the experiment
harness (IPC, PE utilization — the paper's §IV throughput quantities).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from operator import attrgetter
from typing import Callable, Hashable, Sequence

from repro.arch.cgra import CGRA
from repro.arch.interconnect import Coord
from repro.arch.isa import ALU_BY_VALUE, Opcode, evaluate
from repro.arch.memory import DataMemory
from repro.sim.lowering import Firing, GlobalSlot, ResolvedRead, firing_order
from repro.util.errors import SimulationError

__all__ = ["SimResult", "simulate"]


@dataclass
class SimResult:
    """Outcome and instrumentation of one simulated execution."""

    cycles: int
    firings: int
    loads: int
    stores: int
    rf_reads: int = 0
    rf_max_depth_used: int = 0
    global_reads: int = 0
    global_writes: int = 0
    pe_busy: dict[Coord, int] = field(default_factory=dict)

    def utilization(self, cgra: CGRA) -> float:
        """Average PE utilization U over the run (§IV)."""
        if self.cycles == 0:
            return 0.0
        return self.firings / float(cgra.num_pes * self.cycles)

    def summary(self) -> str:
        return (
            f"{self.cycles} cycles, {self.firings} firings "
            f"({self.loads} loads, {self.stores} stores), "
            f"rf depth used {self.rf_max_depth_used}, "
            f"global traffic {self.global_writes}w/{self.global_reads}r"
        )


def simulate(
    firings: Sequence[Firing],
    cgra: CGRA,
    memory: DataMemory,
    *,
    rf_depth: int | None = None,
    bus_key: Callable[[Coord], Hashable] | None = None,
    check_conflicts: bool = True,
    trace=None,
) -> SimResult:
    """Execute *firings* (any order; sorted internally) and return stats.

    ``rf_depth`` overrides the architecture's rotating-register depth;
    ``bus_key`` selects the bus segmentation (defaults to per grid row);
    ``trace`` (a :class:`repro.sim.trace.CycleTrace`) records every firing
    with resolved operand values.
    """
    if bus_key is None:
        bus_key = lambda pe: pe.row  # noqa: E731 - tiny local default
    depth = rf_depth if rf_depth is not None else cgra.rf_depth
    if depth < 1:
        raise SimulationError(f"register file depth must be >= 1, got {depth}")
    # the rotating register files: (PE, production cycle) -> (value, push
    # number on that PE), and each PE's push count.  Nothing is evicted: a
    # value more than `depth` pushes old is refused by the read instead.
    produced: dict[tuple[Coord, int], tuple[int, int]] = {}
    pushes: dict[Coord, int] = {}
    global_store: dict[GlobalSlot, int] = {}
    loads = stores = rf_reads = rf_max_depth = global_reads = global_writes = 0
    load, loadt, store = Opcode.LOAD, Opcode.LOADT, Opcode.STORE
    alu = ALU_BY_VALUE
    cycle = -1

    ordered = sorted(firings, key=firing_order)
    for cycle, group in groupby(ordered, key=attrgetter("cycle")):
        batch = list(group)
        if cycle < 0:
            raise SimulationError(f"firing {batch[0].label} at negative cycle")

        if check_conflicts:
            _check_conflicts(batch, cgra, bus_key, cycle)

        # 1) reads: all operand reads observe pre-cycle state
        resolved: list[list[int]] = []
        for f in batch:
            ops: list[int] = []
            for src in f.operands:
                kind = type(src)
                if kind not in _KINDS:
                    kind = _operand_kind(src, f.label)
                if kind is ResolvedRead:
                    if src.cycle >= cycle:
                        raise SimulationError(
                            f"{f.label} reads a value produced at cycle "
                            f"{src.cycle} >= its own cycle {cycle}"
                        )
                    count = pushes.get(src.pe)
                    if count is None:
                        raise SimulationError(
                            f"{f.label} reads PE {src.pe} which never produced"
                        )
                    entry = produced.get(src)
                    if entry is None or count - entry[1] >= depth:
                        raise SimulationError(
                            f"{f.label} reads PE {src.pe}: value produced at "
                            f"cycle {src.cycle} is not in the rotating register "
                            f"file (depth {depth}); schedule requires more "
                            f"rotating registers than the architecture provides"
                        )
                    ops.append(entry[0])
                    rf_reads += 1
                    used = count - entry[1] + 1
                    if used > rf_max_depth:
                        rf_max_depth = used
                elif kind is int:
                    ops.append(src)
                else:
                    if src not in global_store:
                        raise SimulationError(
                            f"{f.label} reads global slot {src} before any write"
                        )
                    ops.append(global_store[src])
                    global_reads += 1
            resolved.append(ops)

        # 2) execute, push results, queue memory effects.  Store addresses
        # are collected up front so a load in the same cycle is flagged
        # regardless of intra-cycle processing order.
        stores_this_cycle: dict[int, str] = {}
        for f in batch:
            if f.opcode is store:
                if f.addr in stores_this_cycle:
                    raise SimulationError(
                        f"{f.label}: double store to address {f.addr} "
                        f"({stores_this_cycle[f.addr]})"
                    )
                stores_this_cycle[f.addr] = f.label
        pending_stores: list[tuple[int, int]] = []
        for f, ops in zip(batch, resolved):
            opcode = f.opcode
            if opcode is load or opcode is loadt:
                if f.addr is None:
                    raise SimulationError(f"{f.label}: load without address")
                if f.addr in stores_this_cycle:
                    raise SimulationError(
                        f"{f.label}: load/store hazard at address {f.addr} "
                        f"with {stores_this_cycle[f.addr]}"
                    )
                value = memory.load(f.addr)
                loads += 1
            elif opcode is store:
                if f.addr is None:
                    raise SimulationError(f"{f.label}: store without address")
                value = ops[0]
                pending_stores.append((f.addr, value))
            else:
                # the table holds every well-formed ALU call (`_value_`, not
                # the `value` property, to stay in C); `evaluate` computes
                # CONST and raises on any other shape
                fn = alu.get((opcode._value_, len(ops)))
                value = fn(*ops) if fn else evaluate(opcode, ops, f.immediate)
            # push onto the PE's rotating register file
            pe = f.pe
            number = pushes.get(pe, 0) + 1
            entry = (value, number)
            if produced.setdefault((pe, cycle), entry) is not entry:
                raise SimulationError(
                    f"{f.label}: register file pushes must be time-ordered: "
                    f"PE {pe} already pushed at cycle {cycle}"
                )
            pushes[pe] = number
            if trace is not None:
                trace.record(f, ops, value)
            for slot in f.global_writes:
                global_store[slot] = value
                global_writes += 1

        # loads above saw only earlier-cycle memory state (a same-cycle
        # load/store pair was flagged); stores commit at end of cycle.
        for addr, value in pending_stores:
            memory.store(addr, value)
        stores += len(pending_stores)

    return SimResult(
        cycles=cycle + 1,
        firings=len(ordered),
        loads=loads,
        stores=stores,
        rf_reads=rf_reads,
        rf_max_depth_used=rf_max_depth,
        global_reads=global_reads,
        global_writes=global_writes,
        # every firing pushes exactly one value on its PE
        pe_busy=pushes,
    )


#: The operand kinds, told apart by type: an immediate, a register read, a
#: global-storage read.
_KINDS = (int, ResolvedRead, GlobalSlot)


def _operand_kind(src, label: str) -> type:
    """The kind of an operand whose type is a subclass of one (``bool`` is
    an immediate); anything else is refused."""
    for kind in _KINDS:
        if isinstance(src, kind):
            return kind
    raise SimulationError(f"{label}: unknown operand source {src!r}")


def _check_conflicts(batch, cgra, bus_key, cycle) -> None:
    """One firing per PE per cycle, on the grid, within each bus segment's
    port count.  *batch* is sorted by PE, so a double booking is adjacent."""
    rows, cols, ports = cgra.rows, cgra.cols, cgra.mem_ports_per_row
    load, loadt, store = Opcode.LOAD, Opcode.LOADT, Opcode.STORE
    bus: dict[Hashable, int] = {}
    previous = None
    for f in batch:
        pe, opcode = f.pe, f.opcode
        if not (0 <= pe.row < rows and 0 <= pe.col < cols):
            raise SimulationError(f"{f.label} fires on PE {pe} outside grid")
        if previous is not None and previous.pe == pe:
            raise SimulationError(
                f"PE {pe} double-booked at cycle {cycle}: "
                f"{previous.label} and {f.label}"
            )
        previous = f
        if opcode is load or opcode is loadt or opcode is store:
            key = bus_key(pe)
            bus[key] = bus.get(key, 0) + 1
            if bus[key] > ports:
                raise SimulationError(
                    f"bus segment {key} over capacity at cycle {cycle}"
                )
