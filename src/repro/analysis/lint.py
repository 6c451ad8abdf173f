"""Pass 1 — the determinism lint.

An AST-driven rule engine over the ``repro`` source tree.  Every rule in
the shared registry (:mod:`repro.analysis.registry`) with an attached
checker runs over every module; findings are filtered through
``# repro: allow[RULE-ID] reason`` suppressions
(:mod:`repro.analysis.suppressions`), and suppression hygiene itself is
enforced (missing reasons, unused or unknown-rule suppressions are
findings).  The walk, the rule order, and the finding order are all
canonical, so two runs over the same tree produce byte-identical reports —
the lint holds itself to the property it checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, known_rule_ids, lint_rules, register
from repro.analysis.rules import collect_imports
from repro.analysis.suppressions import Suppression, parse_suppressions

__all__ = ["ModuleContext", "lint_paths", "lint_tree", "default_root"]


SUP_REASON = register(
    Rule(
        id="SUP-REASON",
        kind="lint",
        severity=Severity.ERROR,
        summary="suppression without a reason",
        fix_hint="state why the flagged code is safe: "
        "# repro: allow[RULE-ID] <reason>",
    )
)

SUP_UNUSED = register(
    Rule(
        id="SUP-UNUSED",
        kind="lint",
        severity=Severity.WARNING,
        summary="suppression that silences nothing",
        fix_hint="delete the stale # repro: allow[...] comment",
    )
)

SUP_UNKNOWN = register(
    Rule(
        id="SUP-UNKNOWN",
        kind="lint",
        severity=Severity.ERROR,
        summary="suppression naming an unknown rule id",
        fix_hint="use an id from `python -m repro.analysis rules`",
    )
)

LINT_PARSE = register(
    Rule(
        id="LINT-PARSE",
        kind="lint",
        severity=Severity.ERROR,
        summary="module could not be parsed",
        fix_hint="fix the syntax error; the lint cannot vouch for a module "
        "it cannot read",
    )
)


@dataclass
class ModuleContext:
    """Everything a rule checker needs about one source module."""

    path: Path
    display: str
    source: str
    tree: ast.Module
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    imports: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: Path, display: str | None = None) -> "ModuleContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        parents: dict[ast.AST, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        return cls(
            path=path,
            display=display or str(path),
            source=source,
            tree=tree,
            parents=parents,
            imports=collect_imports(tree),
        )

    def finding(
        self, rule: Rule, node: ast.AST, message: str | None = None
    ) -> Finding:
        return Finding(
            file=self.display,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=rule.id,
            severity=rule.severity,
            message=message or rule.summary,
            fix_hint=rule.fix_hint,
        )


def default_root() -> Path:
    """The installed ``repro`` package source tree (what CI lints)."""
    import repro

    return Path(repro.__file__).parent


def _lint_module(ctx: ModuleContext) -> list[Finding]:
    raw: list[Finding] = []
    for rule in lint_rules():
        if rule.checker is None:
            continue
        raw.extend(rule.checker(ctx))

    suppressions = parse_suppressions(ctx.source)
    by_line: dict[int, list[Suppression]] = {}
    for sup in suppressions:
        by_line.setdefault(sup.target_line, []).append(sup)

    kept: list[Finding] = []
    for f in raw:
        covering = [s for s in by_line.get(f.line, []) if s.covers(f.rule_id)]
        valid = [s for s in covering if s.reason]
        if valid:
            for s in valid:
                s.used = True
            continue
        # a reason-less suppression does not silence the finding, but the
        # engine still records that it was aimed at something
        for s in covering:
            s.used = True
        kept.append(f)

    known = known_rule_ids()
    for s in suppressions:
        where = ast.Constant(value=None)
        where.lineno, where.col_offset = s.comment_line, 0
        for rid in s.rule_ids:
            if rid not in known:
                kept.append(
                    ctx.finding(
                        SUP_UNKNOWN, where, f"unknown rule id {rid!r} in allow[]"
                    )
                )
        if not s.reason:
            kept.append(
                ctx.finding(
                    SUP_REASON,
                    where,
                    f"allow[{', '.join(s.rule_ids)}] has no reason",
                )
            )
        elif not s.used:
            kept.append(
                ctx.finding(
                    SUP_UNUSED,
                    where,
                    f"allow[{', '.join(s.rule_ids)}] matched no finding",
                )
            )
    return kept


def lint_paths(
    paths: Iterable[Path], *, base: Path | None = None
) -> list[Finding]:
    """Lint the given files, returning canonically ordered findings."""
    findings: list[Finding] = []
    for path in sorted(paths):
        display = str(path.relative_to(base)) if base else str(path)
        try:
            ctx = ModuleContext.parse(path, display)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            findings.append(
                Finding(
                    file=display,
                    line=getattr(exc, "lineno", None) or 1,
                    col=0,
                    rule_id=LINT_PARSE.id,
                    severity=LINT_PARSE.severity,
                    message=f"unparseable module: {exc}",
                    fix_hint=LINT_PARSE.fix_hint,
                )
            )
            continue
        findings.extend(_lint_module(ctx))
    return sorted(findings)


def lint_tree(root: Path | None = None) -> list[Finding]:
    """Lint every ``*.py`` under *root* (default: the repro package)."""
    root = root or default_root()
    if root.is_file():
        return lint_paths([root], base=root.parent)
    return lint_paths(sorted(root.rglob("*.py")), base=root.parent)
