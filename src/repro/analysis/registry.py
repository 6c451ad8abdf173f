"""The shared rule registry: one catalogue for both analysis passes.

Every diagnostic either pass can emit is declared here as a :class:`Rule`
with a stable id, a severity, and a fix hint.  The determinism lint
(:mod:`repro.analysis.lint`) attaches an AST checker to its rules; the
artifact auditor (:mod:`repro.analysis.audit`) emits its invariant
violations through the same registry, so suppression validation, reports,
and the CI exit-code contract share one vocabulary.

Rule id families:

* ``DET-*`` — source-level determinism hazards (lint pass);
* ``SUP-*`` — suppression hygiene (lint pass);
* ``ART-*`` — artifact encoding/addressing invariants (audit pass);
* ``MAP-*`` — mapping legality invariants, §VI-B included (audit pass);
* ``FOLD-*`` — the stored steady-state II table (audit pass);
* ``STORE-*`` — store hygiene (audit pass).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.findings import Severity

__all__ = [
    "Rule",
    "register",
    "all_rules",
    "lint_rules",
]


@dataclass(frozen=True)
class Rule:
    """One registered diagnostic.

    ``checker`` is set for lint rules only: a callable taking a
    :class:`repro.analysis.lint.ModuleContext` and yielding findings.
    Audit invariants have no checker here — the auditor drives them in a
    fixed order — but registering them reserves the id, severity and hint.
    """

    id: str
    kind: str  # "lint" | "audit"
    severity: Severity
    summary: str
    fix_hint: str
    checker: Callable | None = field(default=None, compare=False)


_REGISTRY: dict[str, Rule] = {}


def register(rule: Rule) -> Rule:
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id!r}")
    if rule.kind not in ("lint", "audit"):
        raise ValueError(f"rule {rule.id}: unknown kind {rule.kind!r}")
    # repro: allow[DET-GLOBAL-WRITE] the catalogue is filled by register() calls at module import, never after
    _REGISTRY[rule.id] = rule
    return rule


def known_rule_ids() -> frozenset[str]:
    _ensure_loaded()
    return frozenset(_REGISTRY)


def all_rules() -> list[Rule]:
    """Every registered rule, in id order (deterministic catalogue)."""
    _ensure_loaded()
    return [_REGISTRY[k] for k in sorted(_REGISTRY)]


def lint_rules() -> list[Rule]:
    return [r for r in all_rules() if r.kind == "lint"]


def _ensure_loaded() -> None:
    """Import the modules that register rules (idempotent)."""
    from repro.analysis import audit, lint, rules  # noqa: F401
