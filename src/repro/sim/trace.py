"""Execution tracing.

Three recorders, all optional and zero-cost when unused:

* :class:`CycleTrace` — plugs into :func:`repro.sim.cgra_sim.simulate` and
  records every firing with its resolved operand values, for debugging
  mappings and transformed schedules (``render()`` prints a per-cycle
  log like a waveform viewer's transcript).
* :class:`SystemTimeline` — plugs into the discrete-event system model and
  records thread-level events (kernel start/finish, reallocations, queue
  waits), for understanding how the page manager multiplexes the array.
* :class:`DecisionTrace` — exact-time record of every allocation decision
  (``CGRAManager`` request/release, or the single-mode FIFO grant) with
  the reallocations applied and the post-decision resident map.  This is
  the trace the cycle-quantum oracle (:mod:`repro.sim.oracle`) replays to
  re-derive finish times, busy-page-cycles and wait cycles independently
  of the event-driven engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from repro.arch.interconnect import Coord
from repro.core.policies import Allocation
from repro.core.runtime import Reallocation

__all__ = [
    "FiringRecord",
    "CycleTrace",
    "TimelineEvent",
    "SystemTimeline",
    "Decision",
    "DecisionTrace",
]


@dataclass(frozen=True)
class FiringRecord:
    """One executed firing with its inputs and result."""

    cycle: int
    pe: Coord
    label: str
    opcode: str
    operands: tuple[int, ...]
    value: int
    iteration: int


@dataclass
class CycleTrace:
    """Bounded recorder of executed firings."""

    limit: int = 100_000
    records: list[FiringRecord] = field(default_factory=list)
    dropped: int = 0

    def record(self, firing, operands: list[int], value: int) -> None:
        if len(self.records) >= self.limit:
            self.dropped += 1
            return
        self.records.append(
            FiringRecord(
                firing.cycle,
                firing.pe,
                firing.label,
                firing.opcode.value,
                tuple(operands),
                value,
                firing.iteration,
            )
        )

    def of_op(self, label_prefix: str) -> list[FiringRecord]:
        return [r for r in self.records if r.label.startswith(label_prefix)]

    def render(self, *, first: int = 0, last: int | None = None) -> str:
        lines = []
        for r in self.records:
            if r.cycle < first or (last is not None and r.cycle > last):
                continue
            ops = ",".join(str(v) for v in r.operands)
            lines.append(
                f"c{r.cycle:05d} {r.pe} {r.label:<16} "
                f"{r.opcode:<6} ({ops}) -> {r.value}"
            )
        if self.dropped:
            lines.append(f"... {self.dropped} records dropped (limit {self.limit})")
        return "\n".join(lines)


@dataclass(frozen=True)
class TimelineEvent:
    """One system-level event.

    ``alloc`` optionally carries the page segment involved as a
    ``(start, length)`` pair — kernel starts and reallocations record the
    thread's (new) allocation so the invariant checker can audit page
    accounting without re-running the simulation.
    """

    time: float
    kind: str  # kernel_start | kernel_done | realloc | queued
    tid: int
    detail: str = ""
    alloc: tuple[int, int] | None = None


@dataclass
class SystemTimeline:
    """Recorder for the multithreaded system simulation."""

    events: list[TimelineEvent] = field(default_factory=list)

    def record(
        self,
        time: Fraction | float,
        kind: str,
        tid: int,
        detail: str = "",
        alloc: tuple[int, int] | None = None,
    ) -> None:
        self.events.append(TimelineEvent(float(time), kind, tid, detail, alloc))

    def render(self, *, max_events: int | None = None) -> str:
        events = sorted(self.events, key=lambda e: (e.time, e.tid))
        if max_events is not None:
            events = events[:max_events]
        return "\n".join(
            f"t={e.time:12.1f}  thread {e.tid:<3d} {e.kind:<13s} {e.detail}"
            for e in events
        )


@dataclass(frozen=True)
class Decision:
    """One allocation decision, with exact time and full context.

    ``kind`` is ``"request"`` (a thread asked for the CGRA — in single
    mode the grant of the whole array, in multithreaded mode the manager
    admission) or ``"release"`` (a thread finished its kernel — including
    any expansions/admissions of other threads the departure triggered).
    ``reallocations`` are the :class:`~repro.core.runtime.Reallocation`
    events applied (empty when the requester was queued), and
    ``residents`` is the complete post-decision allocation map.
    """

    time: Fraction
    kind: str  # "request" | "release"
    tid: int
    reallocations: tuple[Reallocation, ...]
    residents: tuple[tuple[int, Allocation], ...]

    def resident_map(self) -> dict[int, Allocation]:
        return dict(self.residents)


@dataclass
class DecisionTrace:
    """Exact-time recorder of every allocation decision of one run."""

    decisions: list[Decision] = field(default_factory=list)

    def record(
        self,
        time: Fraction,
        kind: str,
        tid: int,
        reallocations: list[Reallocation],
        residents: Mapping[int, Allocation],
    ) -> None:
        self.decisions.append(
            Decision(
                Fraction(time),
                kind,
                tid,
                tuple(reallocations),
                tuple(sorted(residents.items())),
            )
        )
