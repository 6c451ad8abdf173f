"""Reporters and the CI exit-code contract.

Both passes end here: findings go out as human-readable text (one block
per finding, fix hint indented under it).  Exit codes are the contract the
workflow relies on:

* ``0`` — clean (warnings allowed unless ``--strict``);
* ``1`` — findings that gate the build (any ERROR; WARNINGs too under
  ``--strict``);
* ``2`` — the analysis itself could not run (bad store root, bad path).
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.findings import Finding, Severity

__all__ = [
    "EXIT_CLEAN",
    "EXIT_FINDINGS",
    "EXIT_FATAL",
    "exit_code",
    "render_text",
]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_FATAL = 2


def exit_code(findings: Sequence[Finding], *, strict: bool = False) -> int:
    """Map findings onto the CI contract."""
    if any(f.severity is Severity.ERROR for f in findings):
        return EXIT_FINDINGS
    if strict and findings:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def _counts(findings: Sequence[Finding]) -> dict[str, int]:
    out = {"error": 0, "warning": 0}
    for f in findings:
        out[f.severity.value] += 1
    return out


def render_text(
    findings: Sequence[Finding], *, title: str, extra: Sequence[str] = ()
) -> str:
    """Human report: canonical finding order, summary line last."""
    lines = [f.render() for f in sorted(findings)]
    lines.extend(extra)
    c = _counts(findings)
    lines.append(
        f"{title}: {c['error']} error(s), {c['warning']} warning(s)"
        if findings
        else f"{title}: clean"
    )
    return "\n".join(lines)
