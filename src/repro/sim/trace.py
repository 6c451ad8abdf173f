"""Execution tracing.

* :class:`CycleTrace` — plugs into :func:`repro.sim.cgra_sim.simulate` and
  records every firing with its resolved operand values, for debugging
  mappings and transformed schedules (``render()`` prints a per-cycle
  log like a waveform viewer's transcript).
* :class:`DecisionTrace` — the one record of a system run: every
  ``CGRAManager`` request/release decision (in single mode the manager
  has one whole-array slot) at its exact time, with the reallocations
  applied and the post-decision resident map.  The cycle-quantum oracle
  (:mod:`repro.sim.oracle`) replays it to re-derive finish times,
  busy-page-cycles and wait cycles independently of the event-driven
  engine.
* :class:`SystemTimeline` — thread-level view of a run (kernel
  start/finish, reallocations, queue waits), replayed from its
  :class:`DecisionTrace`, for understanding how the page manager
  multiplexes the array; rendered as text or as a Chrome / Perfetto trace.
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
    ``(start, length)`` pair: kernel starts and reallocations carry the
    thread's new allocation.  ``cause`` names the decision that gave it,
    ``"release of thread 3"``, when that was another thread's.
    """

    time: float
    kind: str  # kernel_start | kernel_done | realloc | queued
    tid: int
    detail: str = ""
    alloc: tuple[int, int] | None = None
    cause: str = ""


@dataclass
class SystemTimeline:
    """Thread-level events of one multithreaded-system run."""

    events: list[TimelineEvent] = field(default_factory=list)

    @classmethod
    def replay(
        cls, decisions: "DecisionTrace | list[Decision]", workload
    ) -> "SystemTimeline":
        """The timeline of the run of *workload* that recorded *decisions*.

        Every row is an instant the trace already holds: a release is its
        thread's ``kernel_done``, a grant to a thread without pages its
        ``kernel_start``, any other grant a ``realloc``, and a request that
        moved nothing ``queued``; a grant made by another thread's
        decision names it as the row's ``cause``.  Rows keep the trace's
        order; the workload names the kernel and trip of each request (a
        thread's *k*-th request is its *k*-th CGRA segment).
        """
        segments = {
            t.tid: iter([s for s in t.segments if s.kind == "cgra"])
            for t in workload
        }
        current = {}
        timeline = cls()
        record = timeline.record
        for d in getattr(decisions, "decisions", decisions):
            cause = f"{d.kind} of thread {d.tid}"
            if d.kind == "request":
                current[d.tid] = next(segments[d.tid])
                if not d.reallocations:
                    record(d.time, "queued", d.tid, current[d.tid].kernel)
            else:
                record(d.time, "kernel_done", d.tid)
            for ev in d.reallocations:
                a = ev.after
                if a is None:
                    continue  # the departure, already its kernel_done
                if ev.before is None:
                    kind = "kernel_start"
                    seg = current[ev.tid]
                    detail = f"{seg.kernel} x{seg.trip} on {a.length} pages"
                else:
                    kind = "realloc"
                    detail = f"{ev.before.length} -> {a.length} pages"
                why = cause if ev.tid != d.tid else ""
                record(d.time, kind, ev.tid, detail, (a.start, a.length), why)
        return timeline

    def record(
        self,
        time: Fraction | float,
        kind: str,
        tid: int,
        detail: str = "",
        alloc: tuple[int, int] | None = None,
        cause: str = "",
    ) -> None:
        self.events.append(
            TimelineEvent(float(time), kind, tid, detail, alloc, cause)
        )

    def render(self, *, max_events: int | None = None) -> str:
        events = sorted(self.events, key=lambda e: (e.time, e.tid))
        if max_events is not None:
            events = events[:max_events]
        return "\n".join(
            f"t={e.time:12.1f}  thread {e.tid:<3d} {e.kind:<13s} {e.detail}"
            + (f"  ({e.cause})" if e.cause else "")
            for e in events
        )

    def chrome_trace(self) -> dict:
        """The timeline in Chrome's trace-event format, for Perfetto or
        ``chrome://tracing`` (``json.dump`` the result): one track per
        thread, one slice per queued wait and per segment held, named
        ``queued``, the admission (``k x8 on 4 pages``) or the reshape
        (``4 -> 2 pages``).  One cycle is shown as one microsecond."""
        out = [
            {"ph": "M", "name": "thread_name", "pid": 0, "tid": tid,
             "args": {"name": f"thread {tid}"}}
            for tid in sorted({e.tid for e in self.events})
        ]
        open_slice: dict[int, tuple] = {}
        for e in self.events:
            prev = open_slice.pop(e.tid, None)
            if prev is not None:
                name, start, args = prev
                out.append(
                    {"ph": "X", "name": name, "pid": 0, "tid": e.tid,
                     "ts": start, "dur": e.time - start, "args": args}
                )
            if e.kind == "queued":
                open_slice[e.tid] = ("queued", e.time, {"kernel": e.detail})
            elif e.kind != "kernel_done":
                start, length = e.alloc
                args = {"first_page": start, "pages": length}
                if e.cause:
                    args["cause"] = e.cause
                open_slice[e.tid] = (e.detail, e.time, args)
        return {"traceEvents": out}


@dataclass(frozen=True)
class Decision:
    """One allocation decision, with exact time and full context.

    ``kind`` is ``"request"`` (a thread asked for the CGRA: the manager's
    admission, in single mode a grant of the whole array) or
    ``"release"`` (a thread finished its kernel — including any
    expansions/admissions of other threads the departure triggered).
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
