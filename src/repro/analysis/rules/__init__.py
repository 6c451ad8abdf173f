"""The determinism lint's rule modules and shared AST helpers.

Each submodule registers its rules with :mod:`repro.analysis.registry` at
import time; importing this package loads the whole catalogue.  The helpers
here are the pieces every rule needs: import-alias resolution (so
``np.random.rand`` and ``numpy.random.rand`` match the same trigger) and
dotted-name rendering of attribute chains.
"""

from __future__ import annotations

import ast

__all__ = ["collect_imports", "dotted_name", "resolve_call_target"]


def collect_imports(tree: ast.Module) -> dict[str, str]:
    """Map every imported alias in *tree* to its fully dotted origin.

    ``import numpy as np`` -> ``{"np": "numpy"}``;
    ``from datetime import datetime as dt`` -> ``{"dt": "datetime.datetime"}``.
    Walks the whole module so function-local imports resolve too.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                aliases[a.asname or a.name.split(".")[0]] = (
                    a.name if a.asname else a.name.split(".")[0]
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for a in node.names:
                if a.name == "*":
                    continue
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
    return aliases


def dotted_name(node: ast.AST) -> str | None:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_target(func: ast.AST, imports: dict[str, str]) -> str | None:
    """Fully qualified dotted target of a call through the file's import
    aliases: with ``import numpy as np``, ``np.random.rand`` resolves to
    ``numpy.random.rand``; an unaliased root passes through unchanged."""
    dotted = dotted_name(func)
    if dotted is None:
        return None
    root, _, rest = dotted.partition(".")
    origin = imports.get(root)
    if origin is None:
        return dotted
    return f"{origin}.{rest}" if rest else origin


# Load every rule module so the registry is complete after one import.
from repro.analysis.rules import environment, ordering, pitfalls, randomness, state  # noqa: E402,F401
