"""The II ladder: one serial walk over the (II, attempt) lattice.

Every mapping in this compiler is the answer to the same question: walking
the lattice {(ii, attempt)} in lexicographic order between the mapper's
first and last rung (``ladder_rungs``), which probe succeeds first?
:func:`climb_ladder` is the only code that knows that walk — rung by rung,
attempts in order, the :class:`~repro.util.errors.LadderExhausted` at the
end — and it runs every probe in the calling thread, on the caller's
mapper; nothing cuts a ladder short.  "Lowest
(ii, attempt) wins" is therefore true by construction, and the
:class:`LadderReport` is the effort-per-rung record SAT-MapIt (PAPERS.md)
reports for the same climb.

Parallel compile work has one grain, and it is not here: whole jobs across
worker processes (:func:`repro.pipeline.compile.compile_many` and
``repro.serve --workers N``), each process walking its ladders exactly
like this.  DESIGN.md §12 has the measurement that retired probe racing.

What the walk *pays* for a probe is a separate matter.  A probe is a pure
function of what it reads — the DFG, the fabric, the mapper's constraints
and budgets, the II and the op order — and that is neither the mapper
seed (attempts 0-2 are the same orders at every seed) nor, on the
whole-array ladder, the page size.  A :class:`ProbeMemo` keeps probe
outcomes under exactly that identity, so the jobs of one owner (a compile
service, a serial batch) run each distinct probe once; the walk, and what
it returns, are the same with or without one.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

from repro.compiler.ems import EMSMapper
from repro.compiler.mapping import Mapping
from repro.compiler.stats import counters
from repro.dfg.graph import DFG
from repro.util.errors import LadderExhausted
from repro.util.fingerprint import canonical_fingerprint

__all__ = ["DfgProbes", "LadderReport", "ProbeMemo", "climb_ladder"]

#: Bound on a :class:`ProbeMemo` (FIFO).  A failed probe's entry is its key
#: and a stuck op, a successful one's also the placements and routes of one
#: mapping; a job leaves ~6 entries behind, nine in ten of them failures.
_PROBE_MEMO_MAX = 4096


class ProbeMemo:
    """Probe outcomes shared by the jobs of one owner.

    Instance state of whoever compiles many jobs in one process — a
    :class:`~repro.serve.service.CompileService`, the serial path of
    :func:`~repro.pipeline.compile.compile_many_outcomes` — handed down to
    the mappers as an argument (:meth:`for_dfg`); there is no process-wide
    one.  Bounded, oldest entry evicted first; one lock, so the slot
    threads of a service share it.  An entry is written after its probe
    ran to the end, never for a probe that raised or was never started, so
    the memo holds complete outcomes only.
    """

    def __init__(self) -> None:
        self._entries: dict[tuple, tuple] = {}
        self._lock = threading.Lock()
        self.run = 0  #: lookups that missed: the probe was run
        self.shared = 0  #: lookups answered with an earlier probe's outcome

    def for_dfg(self, dfg: DFG, fingerprint: str | None = None) -> "DfgProbes":
        """The memo as the mappers of *dfg* see it.  *fingerprint* is
        ``dfg.fingerprint()`` where the caller has it already."""
        return DfgProbes(self, dfg, fingerprint or dfg.fingerprint())

    def get(self, key: tuple) -> tuple | None:
        """The outcome stored under *key*, counted as shared, or None,
        counted as run: the caller runs the probe and :meth:`put` stores it."""
        with self._lock:
            outcome = self._entries.get(key)
            if outcome is None:
                self.run += 1
            else:
                self.shared += 1
        return outcome

    def put(self, key: tuple, outcome: tuple) -> None:
        with self._lock:
            if len(self._entries) >= _PROBE_MEMO_MAX:
                del self._entries[next(iter(self._entries))]
            self._entries[key] = outcome

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"run": self.run, "shared": self.shared, "entries": len(self._entries)}


class DfgProbes:
    """A :class:`ProbeMemo` bound to one DFG — what ``probes=`` means to
    the mapping functions and the mappers (``memo=``, one layer up, is the
    :class:`ProbeMemo` itself): the DFG's identity leads every key,
    computed once per job and not once per mapper.  That identity is the
    fingerprint *and* the edge numbering — the fingerprint is blind to edge
    ids and to the order the edges were added in, while a stored outcome's
    routes are keyed by edge id and a probe breaks ties in edge order, so
    two builders of one graph share nothing.  :attr:`epoch` is the DFG's
    adjacency epoch the identity was taken at; a mapper refuses to probe
    any other graph through it."""

    def __init__(self, memo: ProbeMemo, dfg: DFG, fingerprint: str) -> None:
        self._memo = memo
        self._prefix = (
            fingerprint,
            canonical_fingerprint(
                [[e.id, e.src, e.dst, e.operand_index, e.distance] for e in dfg.edges.values()]
            ),
        )
        self.epoch = dfg._adjacency()

    def get(self, key: tuple) -> tuple | None:
        return self._memo.get((*self._prefix, *key))

    def put(self, key: tuple, outcome: tuple) -> None:
        self._memo.put((*self._prefix, *key), outcome)


@dataclass
class LadderReport:
    """Per-ladder outcome record: the (II, attempt) timeline of one climb.

    ``timeline`` holds one ``[ii, attempt, outcome, seconds, stuck]`` row
    per probe in the order it ran; *outcome* is ``success`` or ``fail``
    and *stuck* is the ``(op_id, reason)`` a ``fail`` died on, else None.
    ``per_ii`` compresses that into one row per II rung, ``stuck`` into
    one count per (op, reason).  ``shared`` counts the probes a
    :class:`ProbeMemo` answered: their rows show the outcome and stuck op
    of the probe that ran, and next to no seconds.
    """

    start_ii: int
    attempts_per_ii: int
    winner: tuple[int, int] | None = None
    timeline: list[list] = field(default_factory=list)
    shared: int = 0

    def per_ii(self) -> list[list]:
        """``[ii, probes, failed, won_attempt|-1]`` per rung."""
        rows: dict[int, list] = {}
        for ii, attempt, outcome, _seconds, _stuck in self.timeline:
            row = rows.setdefault(ii, [ii, 0, 0, -1])
            row[1] += 1
            if outcome == "fail":
                row[2] += 1
            else:
                row[3] = attempt
        return [rows[ii] for ii in sorted(rows)]

    def stuck(self) -> Counter:
        """Failed probes per ``(op_id, reason)`` they died on — the ops a
        failing ladder keeps dying on are its ``most_common()``."""
        return Counter(row[4] for row in self.timeline if row[4] is not None)


def climb_ladder(
    mapper: EMSMapper, dfg, *, log: list[LadderReport] | None = None
) -> Mapping:
    """Climb *mapper*'s (II, attempt) ladder for *dfg*: the one II walk.

    Returns the mapping of the first success, or raises
    :class:`~repro.util.errors.LadderExhausted` when every rung from the
    first to the last of ``mapper.ladder_rungs`` fails — at once, with no
    probe launched, when the first lies above the last.  ``log`` collects
    this ladder's :class:`LadderReport`.
    """
    start_ii, max_ii = mapper.ladder_rungs(dfg)
    per_ii = mapper.lattice_attempts_per_ii()
    report = LadderReport(start_ii=start_ii, attempts_per_ii=per_ii)
    if log is not None:
        log.append(report)
    orders = mapper.attempt_orders(dfg)
    stats = counters()
    for ii in range(start_ii, max_ii + 1):
        for attempt in range(per_ii):
            began = time.perf_counter()
            shared = stats.probes_shared
            mapping = mapper.run_lattice_attempt(dfg, start_ii, ii, attempt, orders)
            seconds = round(time.perf_counter() - began, 4)
            report.shared += stats.probes_shared - shared
            if mapping is not None:
                report.winner = (ii, attempt)
                report.timeline.append([ii, attempt, "success", seconds, None])
                return mapping
            report.timeline.append([ii, attempt, "fail", seconds, mapper.stuck])
    raise LadderExhausted(
        f"could not map {dfg.name!r} ({dfg.num_ops} ops) on "
        f"{len(mapper.allowed_pes)} PEs within II <= {max_ii}"
    )
