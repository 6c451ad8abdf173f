"""The II ladder: one serial walk over the (II, attempt) lattice.

Every mapping in this compiler is the answer to the same question: walking
the lattice {(ii, attempt)} in lexicographic order between the mapper's
first and last rung (``ladder_rungs``), which probe succeeds first?
:func:`climb_ladder` is the only code that knows that walk — rung by rung,
attempts in order, the ``cancel_check`` poll between probes, the
:class:`~repro.util.errors.LadderExhausted` at the end — and it runs every
probe in the calling thread, on the caller's mapper.  "Lowest
(ii, attempt) wins" is therefore true by construction, and the
:class:`LadderReport` is the effort-per-rung record SAT-MapIt (PAPERS.md)
reports for the same climb.

Parallel compile work has one grain, and it is not here: whole jobs across
worker processes (:func:`repro.pipeline.compile.compile_many` and
``repro.serve --workers N``), each process walking its ladders exactly
like this.  DESIGN.md §11 has the measurement that retired probe racing.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field

from repro.compiler.ems import EMSMapper
from repro.compiler.mapping import Mapping
from repro.util.errors import LadderExhausted

__all__ = ["CancelledSearch", "LadderReport", "climb_ladder"]


class CancelledSearch(Exception):
    """A ladder was cooperatively cancelled mid-search.

    Deliberately *not* a :class:`~repro.util.errors.MappingError`: the
    pipeline converts exhausted ladders into unmappable artifacts, and a
    cancelled request must never masquerade as an unmappable kernel (that
    artifact would be stored and served to every future tenant).
    """


@dataclass
class LadderReport:
    """Per-ladder outcome record: the (II, attempt) timeline of one climb.

    ``timeline`` holds one ``[ii, attempt, outcome, seconds, stuck]`` row
    per probe in the order it ran; *outcome* is ``success`` or ``fail``
    and *stuck* is the ``(op_id, reason)`` a ``fail`` died on, else None.
    ``per_ii`` compresses that into one row per II rung, ``stuck`` into
    one count per (op, reason).
    """

    start_ii: int
    attempts_per_ii: int
    winner: tuple[int, int] | None = None
    timeline: list[list] = field(default_factory=list)

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
    mapper: EMSMapper,
    dfg,
    *,
    min_ii: int | None = None,
    cancel_check=None,
    log: list[LadderReport] | None = None,
) -> Mapping:
    """Climb *mapper*'s (II, attempt) ladder for *dfg*: the one II walk.

    Returns the mapping of the first success, or raises
    :class:`~repro.util.errors.LadderExhausted` when every rung from the
    first to the last of ``mapper.ladder_rungs`` fails — at once, with no
    probe launched, when the first lies above the last.  *cancel_check*,
    when given, is polled before every probe; returning True raises
    :class:`CancelledSearch` out of the ladder.  ``log`` collects this
    ladder's :class:`LadderReport`.
    """
    start_ii, max_ii = mapper.ladder_rungs(dfg, min_ii=min_ii)
    per_ii = mapper.lattice_attempts_per_ii()
    report = LadderReport(start_ii=start_ii, attempts_per_ii=per_ii)
    if log is not None:
        log.append(report)
    orders = mapper.attempt_orders(dfg)
    for ii in range(start_ii, max_ii + 1):
        for attempt in range(per_ii):
            if cancel_check is not None and cancel_check():
                raise CancelledSearch(f"ladder cancelled at II {ii}, attempt {attempt}")
            began = time.perf_counter()
            mapping = mapper.run_lattice_attempt(dfg, start_ii, ii, attempt, orders)
            seconds = round(time.perf_counter() - began, 4)
            if mapping is not None:
                report.winner = (ii, attempt)
                report.timeline.append([ii, attempt, "success", seconds, None])
                return mapping
            report.timeline.append([ii, attempt, "fail", seconds, mapper.stuck])
    raise LadderExhausted(
        f"could not map {dfg.name!r} ({dfg.num_ops} ops) on "
        f"{len(mapper.allowed_pes)} PEs within II <= {max_ii}"
    )
