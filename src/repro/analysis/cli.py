"""``python -m repro.analysis`` — the CI entry point for both passes.

Subcommands:

* ``lint [--root PATH]`` — run the determinism lint over the source tree
  (default: the installed ``repro`` package);
* ``audit [--store PATH]`` — run the artifact auditor over a store
  (default: the standard ``.repro_artifacts`` location);
* ``all`` — both passes, combined report, worst exit code wins;
* ``rules`` — print the rule catalogue.

``--strict`` makes warnings gate the build (the required CI step runs
``all --strict``).
Exit codes: 0 clean, 1 findings, 2 the analysis itself failed to run.
What no lint rule sees — file I/O and argument mutation on the compile
and fingerprint paths — is ``tests/test_contracts.py``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import Finding
from repro.analysis.report import EXIT_FATAL, exit_code, render_text

__all__ = ["main"]


def _parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--strict",
        action="store_true",
        help="warnings gate the build too (CI runs this)",
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism lint + artifact auditor",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lint = sub.add_parser(
        "lint", parents=[common], help="determinism lint over the source tree"
    )
    lint.add_argument(
        "--root",
        type=Path,
        default=None,
        help="file or package directory to lint (default: the repro package)",
    )

    audit = sub.add_parser(
        "audit", parents=[common], help="audit every artifact in a store"
    )
    audit.add_argument(
        "--store",
        type=Path,
        default=None,
        help="store root (default: .repro_artifacts / $REPRO_CACHE_DIR)",
    )

    both = sub.add_parser(
        "all", parents=[common], help="both passes, worst exit code wins"
    )
    both.add_argument("--root", type=Path, default=None)
    both.add_argument("--store", type=Path, default=None)

    sub.add_parser("rules", parents=[common], help="print the rule catalogue")
    return parser


def _run_lint(root: Path | None) -> list[Finding]:
    from repro.analysis.lint import lint_tree

    if root is not None and not root.exists():
        raise FileNotFoundError(f"lint root {root} does not exist")
    return lint_tree(root)


def _run_audit(store: Path | None) -> tuple[list[Finding], str]:
    from repro.analysis.audit import audit_store

    if store is not None:
        if not store.exists():
            raise FileNotFoundError(f"artifact store {store} does not exist")
        if not store.is_dir():
            raise NotADirectoryError(f"artifact store {store} is not a directory")
    report = audit_store(store)
    return report.findings, report.summary()


def _print_rules() -> int:
    from repro.analysis.registry import all_rules

    rules = all_rules()
    width = max(len(r.id) for r in rules)
    for r in rules:
        print(f"{r.id:<{width}}  {r.kind:<5}  {r.severity.value:<7}  {r.summary}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "rules":
        return _print_rules()

    findings: list[Finding] = []
    extra: list[str] = []
    try:
        if args.command in ("lint", "all"):
            findings.extend(_run_lint(args.root))
        if args.command in ("audit", "all"):
            audit_findings, summary = _run_audit(args.store)
            findings.extend(audit_findings)
            extra.append(summary)
    except (FileNotFoundError, NotADirectoryError, PermissionError) as exc:
        print(f"repro.analysis: fatal: {exc}", file=sys.stderr)
        return EXIT_FATAL

    title = f"repro.analysis {args.command}"
    print(render_text(findings, title=title, extra=extra))
    return exit_code(findings, strict=args.strict)
