"""The mutable-default pitfall.

A mutable default argument is shared across calls, so results depend on
call history.  In a long-lived service process that is state one request
leaves behind for the next, on a path the byte-recompile net never takes
(DESIGN.md §10).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register

_MUTABLE_CALLS = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict", "Counter"}
)


def _is_mutable_default(node: ast.AST) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _MUTABLE_CALLS
    )


def _check_mutable_default(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]
        for d in defaults:
            if _is_mutable_default(d):
                yield ctx.finding(
                    MUT_DEFAULT,
                    d,
                    "mutable default argument is shared across calls",
                )


MUT_DEFAULT = register(
    Rule(
        id="DET-MUT-DEFAULT",
        kind="lint",
        severity=Severity.ERROR,
        summary="mutable default argument",
        fix_hint="default to None and construct the container inside the "
        "function (or use dataclasses.field(default_factory=...))",
        checker=_check_mutable_default,
    )
)
