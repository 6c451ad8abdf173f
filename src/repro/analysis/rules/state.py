"""Process state: a function that writes a module global.

A compile's bytes must depend only on its request, and the service keeps
compiling in one long-lived process; a global a function writes is state
one request leaves behind for the next (a cache, a counter, a registry).
So no function may write one.  A write is a rebinding through ``global``,
a store or ``del`` on the global's subscript or attribute (``+=`` included),
or an in-place container method called on it.  The receiver is followed
through attribute and subscript chains (``CACHE[k].append(v)`` writes
``CACHE``), a name any enclosing function binds shadows the global, and a
``threading.local()`` global is exempt: its attributes are per-thread by
construction.  A method mutating ``self``, called on a module-level
instance, is not seen — the rule reads names, not types.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding, Severity
from repro.analysis.registry import Rule, register
from repro.analysis.rules import resolve_call_target

_INPLACE_METHODS = frozenset(
    "append extend insert remove pop clear update setdefault add discard "
    "popitem sort reverse".split()
)

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = (*_FUNCTIONS, ast.ClassDef)


def _own_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Every node of *scope*'s body; nested scopes are yielded, not entered."""
    stack = list(scope.body) if isinstance(scope.body, list) else [scope.body]
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _bindings(scope: ast.AST) -> tuple[set[str], set[str], set[str]]:
    """(names *scope* binds as its own, names it declares ``global``, names
    it binds by ``import``).  Comprehension targets count as the scope's."""
    bound: set[str] = set()
    declared: set[str] = set()
    nonlocal_: set[str] = set()
    modules: set[str] = set()
    if isinstance(scope, _FUNCTIONS):
        a = scope.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
        bound.update(p.arg for p in params if p is not None)
    for node in _own_nodes(scope):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = {(a.asname or a.name).split(".")[0] for a in node.names}
            bound |= names
            if isinstance(node, ast.Import):
                modules |= names
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        elif isinstance(node, ast.Nonlocal):
            nonlocal_.update(node.names)
    return bound - declared - nonlocal_, declared, modules


def _global_root(node: ast.AST, watched, declared, shadowing) -> str | None:
    """The module global a store or call on *node* writes, if any: the root
    of its attribute/subscript chain, unless a function scope binds it."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    if not isinstance(node, ast.Name) or node.id not in watched:
        return None
    if node.id in declared or not any(node.id in s for s in shadowing):
        return node.id
    return None


def _check_global_write(ctx) -> Iterator[Finding]:
    bound, _, modules = _bindings(ctx.tree)
    thread_local = {
        t.id
        for node in _own_nodes(ctx.tree)
        if isinstance(node, ast.Assign)
        and isinstance(node.value, ast.Call)
        and resolve_call_target(node.value.func, ctx.imports) == "threading.local"
        for t in node.targets
        if isinstance(t, ast.Name)
    }
    yield from _scope_writes(ctx, ctx.tree, bound - thread_local, modules, ())


def _scope_writes(ctx, scope, watched, modules, enclosing) -> Iterator[Finding]:
    """Findings of *scope* and every scope nested in it; *enclosing* holds
    the bindings of the function scopes around it (class bodies shadow
    nothing, and only a function body writes after import)."""
    is_function = isinstance(scope, _FUNCTIONS)
    if is_function:
        local, declared, _ = _bindings(scope)
        enclosing = (local, *enclosing)
    for node in _own_nodes(scope):
        if isinstance(node, _SCOPES):
            yield from _scope_writes(ctx, node, watched, modules, enclosing)
            continue
        if not is_function:
            continue
        name = None
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            if node.id in declared:
                name, what = node.id, "rebinds it through `global`"
        elif isinstance(node, (ast.Subscript, ast.Attribute)):
            if not isinstance(node.ctx, ast.Load):
                name = _global_root(node.value, watched, declared, enclosing)
                what = "stores into it"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _INPLACE_METHODS
            # os.remove(p) is a function of a module, not a container method
            and not (
                isinstance(node.func.value, ast.Name)
                and node.func.value.id in modules
            )
        ):
            name = _global_root(node.func.value, watched, declared, enclosing)
            what = f"calls .{node.func.attr}() on it"
        if name is not None:
            yield ctx.finding(
                GLOBAL_WRITE,
                node,
                f"function {getattr(scope, 'name', '<lambda>')!r} writes "
                f"module global {name!r}: {what}",
            )


GLOBAL_WRITE = register(
    Rule(
        id="DET-GLOBAL-WRITE",
        kind="lint",
        severity=Severity.ERROR,
        summary="function writes a module global (state outlives the call)",
        fix_hint="keep the state on an instance or pass it in and return it; "
        "use threading.local() for per-thread state, or suppress with a "
        "reason when the write happens only at import time",
        checker=_check_global_write,
    )
)
