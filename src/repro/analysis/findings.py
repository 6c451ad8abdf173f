"""The finding model shared by both analysis passes.

A :class:`Finding` is one diagnostic from either the determinism lint
(anchored at a source ``file:line``) or the artifact auditor (anchored at a
store path).  Findings are plain data, canonically ordered, and carry the
rule id that produced them so reports, suppressions, and CI gates all speak
the same vocabulary (see :mod:`repro.analysis.registry` for the catalogue).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


__all__ = ["Severity", "Finding"]


class Severity(enum.Enum):
    """How a finding gates CI.

    ``ERROR`` findings fail the build always; ``WARNING`` findings fail it
    only under ``--strict`` (the required CI step runs strict, so a clean
    tree stays clean).
    """

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: what rule fired, where, why, and how to fix it."""

    file: str
    line: int
    col: int
    rule_id: str
    severity: Severity = field(compare=False)
    message: str = field(compare=False)
    fix_hint: str = field(compare=False, default="")

    def render(self) -> str:
        loc = f"{self.file}:{self.line}" + (f":{self.col}" if self.col else "")
        text = f"{loc}: [{self.severity.value}] {self.rule_id}: {self.message}"
        if self.fix_hint:
            text += f"\n    fix: {self.fix_hint}"
        return text
