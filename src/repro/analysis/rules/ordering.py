"""Iteration-order hazards: unordered sets and directory scans.

These are the rules behind the repo's byte-identical-artifact guarantee:
anything that iterates a hash-ordered container (or a filesystem directory,
whose order is filesystem-dependent) on a path that can influence
placement, routing, fingerprints, or reports must impose a canonical order
first.  Dicts are *not* flagged — CPython dicts are insertion-ordered, and
the mapper's determinism story already rests on deterministic insertion.
A directory's order never reaches a compiled byte the recompile net pins,
so on the serve path nothing but this rule compares two readdir orders
(DESIGN.md §10).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.analysis.rules import resolve_call_target

#: Builtins whose result does not depend on the order their (sole) iterable
#: argument is consumed in, so iterating a set directly inside them is safe.
_ORDER_INSENSITIVE_CONSUMERS = frozenset(
    {"sum", "len", "min", "max", "any", "all", "set", "frozenset", "sorted"}
)

_SET_CONSTRUCTORS = frozenset({"set", "frozenset"})
_TRANSPARENT_WRAPPERS = frozenset({"list", "tuple", "iter", "reversed", "enumerate"})
_SET_METHODS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference", "copy"}
)

#: Directory-scan callables whose result order is filesystem-dependent.
_SCAN_FUNCTIONS = frozenset({"os.listdir", "os.scandir", "os.walk", "glob.glob", "glob.iglob"})
_SCAN_METHODS = frozenset({"iterdir", "glob", "rglob"})


def _annotation_is_set(node: ast.AST | None) -> bool:
    if node is None:
        return False
    if isinstance(node, ast.Name):
        return node.id in ("set", "frozenset", "Set", "FrozenSet", "AbstractSet")
    if isinstance(node, ast.Subscript):
        return _annotation_is_set(node.value)
    if isinstance(node, ast.Attribute):  # typing.Set[...]
        return node.attr in ("Set", "FrozenSet", "AbstractSet")
    return False


class _SetTypes:
    """Light local inference: which names/attributes hold sets.

    Tracks, per enclosing function (or the module body), names assigned or
    annotated as sets, and per class, ``self.<attr>`` fields annotated as
    sets in the class body (dataclass fields included).  Deliberately
    flow-insensitive: once a name has held a set anywhere in the scope it
    stays suspect — reordering hazards do not care which branch assigned it.
    """

    def __init__(self, tree: ast.Module) -> None:
        self.scope_sets: dict[ast.AST, set[str]] = {}
        self.class_set_attrs: dict[ast.AST, set[str]] = {}
        self.scope_of: dict[ast.AST, ast.AST] = {}
        self.class_of: dict[ast.AST, ast.AST | None] = {}
        self._index(tree)

    def _index(self, tree: ast.Module) -> None:
        scopes = [tree]
        classes: list[ast.AST | None] = [None]

        def visit(node: ast.AST) -> None:
            self.scope_of[node] = scopes[-1]
            self.class_of[node] = classes[-1]
            is_scope = isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
            is_class = isinstance(node, ast.ClassDef)
            if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
                if isinstance(node.target, ast.Name):
                    if isinstance(scopes[-1], ast.ClassDef):
                        # a class-body AnnAssign declares a set-typed
                        # attribute (dataclass fields included)
                        self.class_set_attrs.setdefault(scopes[-1], set()).add(
                            node.target.id
                        )
                    else:
                        self.scope_sets.setdefault(scopes[-1], set()).add(
                            node.target.id
                        )
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                value = node.value
                if value is not None and self._expr_is_set(value, scopes[-1], classes[-1]):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for t in targets:
                        if isinstance(t, ast.Name):
                            self.scope_sets.setdefault(scopes[-1], set()).add(t.id)
            if is_scope:
                scopes.append(node)
            if is_class:
                scopes.append(node)
                classes.append(node)
            for child in ast.iter_child_nodes(node):
                visit(child)
            if is_scope:
                scopes.pop()
            if is_class:
                scopes.pop()
                classes.pop()

        visit(tree)

    def _expr_is_set(
        self, node: ast.AST, scope: ast.AST, cls: ast.AST | None
    ) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id in _SET_CONSTRUCTORS:
                return True
            if isinstance(f, ast.Attribute) and f.attr in _SET_METHODS:
                return self._expr_is_set(f.value, scope, cls)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._expr_is_set(node.left, scope, cls) or self._expr_is_set(
                node.right, scope, cls
            )
        if isinstance(node, ast.Name):
            return node.id in self.scope_sets.get(scope, ())
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and cls is not None
        ):
            return node.attr in self.class_set_attrs.get(cls, ())
        return False

    def is_set(self, node: ast.AST) -> bool:
        scope = self.scope_of.get(node)
        cls = self.class_of.get(node)
        # wrappers that preserve the underlying (unordered) order
        if isinstance(node, ast.Call):
            f = node.func
            if (
                isinstance(f, ast.Name)
                and f.id in _TRANSPARENT_WRAPPERS
                and node.args
            ):
                return self.is_set(node.args[0])
        return self._expr_is_set(node, scope, cls)


def _order_insensitive_context(node: ast.AST, parents: dict) -> bool:
    """Is this iteration's result consumed order-insensitively?

    True for set/dict-free aggregations (``sum(... for x in s)``) and for
    comprehensions that rebuild a set.  A generator or list comprehension
    passed as the sole iterable of :data:`_ORDER_INSENSITIVE_CONSUMERS` is
    safe; so is a ``SetComp`` (set in, set out).
    """
    comp = node
    while comp is not None and not isinstance(
        comp, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.For)
    ):
        comp = parents.get(comp)
    if comp is None or isinstance(comp, ast.For):
        return False
    if isinstance(comp, ast.SetComp):
        return True
    if isinstance(comp, ast.DictComp):
        return False  # dict insertion order leaks the set order downstream
    call = parents.get(comp)
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id in _ORDER_INSENSITIVE_CONSUMERS
        and len(call.args) == 1
        and call.args[0] is comp
    )


def _check_set_iteration(ctx) -> Iterator[Finding]:
    types = _SetTypes(ctx.tree)
    for node in ast.walk(ctx.tree):
        iters: list[ast.AST] = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if not types.is_set(it):
                continue
            if _order_insensitive_context(it, ctx.parents):
                continue
            yield ctx.finding(
                SET_ITER,
                it,
                "iteration over a set has hash-dependent order",
            )


def _check_dir_scan(ctx) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        target = resolve_call_target(node.func, ctx.imports)
        is_scan = target in _SCAN_FUNCTIONS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _SCAN_METHODS
        )
        if not is_scan:
            continue
        parent = ctx.parents.get(node)
        if (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id == "sorted"
            and parent.args
            and parent.args[0] is node
        ):
            continue
        yield ctx.finding(
            DIR_SCAN,
            node,
            f"directory scan {target or node.func.attr!r} yields "
            "filesystem-dependent order",
        )


SET_ITER = register(
    Rule(
        id="DET-SET-ITER",
        kind="lint",
        severity=Severity.ERROR,
        summary="iteration over a set (hash order) on an order-sensitive path",
        fix_hint="wrap the iterable in sorted(..., key=...) with a canonical "
        "key, or suppress with a reason if the consumer is order-insensitive",
        checker=_check_set_iteration,
    )
)

DIR_SCAN = register(
    Rule(
        id="DET-DIR-SCAN",
        kind="lint",
        severity=Severity.ERROR,
        summary="unsorted directory scan (os.listdir/glob/iterdir)",
        fix_hint="wrap the scan in sorted(...) — directory order is "
        "filesystem- and platform-dependent",
        checker=_check_dir_scan,
    )
)
