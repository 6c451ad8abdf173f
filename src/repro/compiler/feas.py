"""II feasibility: both ends of every ladder.

Every backend climbs an (II, attempt) ladder whose first rung is the
minimum initiation interval MII = max(ResMII, RecMII).  This module owns
that computation — :func:`ii_lower_bound` is the single source of truth the
flat ladder (:meth:`repro.compiler.ems.EMSMapper.ladder_rungs`), the
hier backend and the auditor's ``MAP-MII`` rule delegate to — and
the last rung of every *paged* ladder, :attr:`IIBound.ceiling`.

Soundness contract: the bound may only exclude an II at which **no**
mapping exists under the mapper's own constraint model.  It therefore
reasons about the same resources the placer and router charge — one op or
routed value per (PE, cycle-slot), memory issue slots per cycle — and never
about heuristics.  The property tests in ``tests/test_feasibility.py``
replay every committed artifact against it: an II that actually mapped
must never lie below the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.compiler.mapping import materialized_ops
from repro.dfg.analysis import rec_mii
from repro.dfg.graph import DFG
from repro.util.errors import LadderExhausted, MappingError
from repro.util.spans import span

__all__ = [
    "IIBound",
    "ii_lower_bound",
]


@dataclass(frozen=True)
class IIBound:
    """The exact per-resource lower bounds on the initiation interval.

    ``mii`` is the ladder's first rung; the individual terms are kept
    separate so audits and benchmarks can report *which* resource binds.
    """

    res_mii: int  #: ceil(materialized ops / PEs available to the mapper)
    mem_slot_mii: int  #: ceil(memory ops / memory issue slots per cycle)
    mem_cap_mii: int  #: ceil(memory ops / mem-capable PEs) — capability floor
    rec_mii: int  #: longest-cycle bound over the DFG's recurrences

    @property
    def mii(self) -> int:
        return max(self.res_mii, self.mem_slot_mii, self.mem_cap_mii, self.rec_mii)

    @property
    def ceiling(self) -> int:
        """Last rung of every paged ladder.  A policy, not a bound: it is
        where the traffic ends — none of the 354 mapped jobs of the 374
        measured (DESIGN.md §5, "The II ladder") wins above it."""
        return 3 * max(self.res_mii, self.rec_mii, 1) + 6

    def binding(self) -> str:
        """Name of (one of) the binding resources, for reports."""
        m = self.mii
        for name in ("res_mii", "mem_slot_mii", "mem_cap_mii", "rec_mii"):
            if getattr(self, name) == m:
                return name
        return "res_mii"


@span("compiler.ii_bound")
def ii_lower_bound(
    dfg: DFG,
    *,
    num_pes: int,
    mem_slots: int,
    mem_capable_pes: int,
    max_ii: int,
) -> IIBound:
    """Exact MII terms for *dfg* on a fabric exposing *num_pes* PEs,
    *mem_slots* memory issue slots per cycle and *mem_capable_pes*
    mem-capable PEs.

    Raises :class:`MappingError` for a DFG with nothing to place, and
    :class:`LadderExhausted` — the ladder's verdict, reached without a
    probe — for one that can never map at any II up to *max_ii*: more ops
    than (PE, slot) pairs, or memory ops with no mem-capable PE.
    """
    n_mat = len(materialized_ops(dfg))
    if n_mat == 0:
        raise MappingError("cannot map a DFG with no materialized ops")
    if n_mat > num_pes * max_ii:
        raise LadderExhausted(
            f"{n_mat} ops can never fit {num_pes} PEs "
            f"within max II {max_ii}"
        )
    n_mem = dfg.num_memory_ops
    if n_mem and mem_capable_pes == 0:
        raise LadderExhausted(
            f"{dfg.name!r} has {n_mem} memory ops but no "
            f"mem-capable PE is available to the mapper"
        )
    return IIBound(
        res_mii=math.ceil(n_mat / num_pes),
        mem_slot_mii=math.ceil(n_mem / mem_slots) if n_mem else 1,
        # each mem-capable PE issues at most one memory op per II cycle
        # (equals the ResMII term when the fabric is homogeneous, so the
        # homogeneous ladder is unchanged)
        mem_cap_mii=math.ceil(n_mem / mem_capable_pes) if n_mem else 1,
        rec_mii=rec_mii(dfg),
    )

