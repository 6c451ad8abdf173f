"""The string-hash hazard.

``hash()`` is flagged because it leaks the per-process string-hash salt
into anything that sorts or keys by it: a simulator run ordered by it
changes with ``PYTHONHASHSEED``, and no runtime check compares two salts
on that path (DESIGN.md §10).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register


def _check_hash_order(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and len(node.args) == 1
        ):
            yield ctx.finding(
                HASH_ORDER,
                node,
                "hash() of str/bytes is salted per process "
                "(PYTHONHASHSEED); values must not shape artifacts",
            )


HASH_ORDER = register(
    Rule(
        id="DET-HASH-ORDER",
        kind="lint",
        severity=Severity.ERROR,
        summary="builtin hash() (process-salted for str/bytes)",
        fix_hint="use repro.util.fingerprint.canonical_fingerprint or a "
        "stable explicit key",
        checker=_check_hash_order,
    )
)
