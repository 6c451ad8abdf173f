"""Static analysis for the repro stack: two passes, one rule registry.

* :mod:`repro.analysis.lint` — AST determinism lint over the source tree
  (hash-order iteration, unseeded RNG, wall-clock values, unsorted
  directory scans, mutable defaults, float equality, ...);
* :mod:`repro.analysis.audit` — mapper-independent artifact auditor
  re-proving every stored :class:`~repro.pipeline.artifact.CompiledKernel`
  from bytes alone (content address, canonical encoding, mapping legality,
  §VI-B constraints, PageMaster foldability for every M <= N).

CLI: ``python -m repro.analysis {lint,audit,all,rules} [--json] [--strict]``.
"""

from repro.analysis.audit import AuditReport, audit_store
from repro.analysis.findings import Finding, Severity
from repro.analysis.lint import lint_paths, lint_tree
from repro.analysis.registry import Rule, all_rules
from repro.analysis.report import exit_code, render_json, render_text

__all__ = [
    "AuditReport",
    "audit_store",
    "Finding",
    "Severity",
    "lint_paths",
    "lint_tree",
    "Rule",
    "all_rules",
    "exit_code",
    "render_json",
    "render_text",
]
