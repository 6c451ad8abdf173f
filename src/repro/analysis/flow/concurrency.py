"""Concurrency-root enumeration and the race rules.

A *concurrency root* is a site that hands a callable to another thread or
process: ``ThreadPoolExecutor.submit``/``.map``, ``ProcessPoolExecutor``
jobs, ``loop.run_in_executor(pool, fn, *args)`` (an asyncio service's
blocking work: any number of coroutines may be awaiting one at a time, so
it is always a *multi* root), ``Future.add_done_callback`` (callbacks run
on executor threads), and ``threading.Thread(target=...)``.  A ``.submit``
on a receiver the call graph cannot type (``ctx.executor.submit(...)``)
becomes an *unknown*-kind root that conservatively participates in both
race rules.  Roots submitted inside a loop or comprehension (or via
``.map``) are *multi* roots: two copies of the same entrypoint may run
concurrently, so they count twice when weighing writers.

**RACE-SHARED-MUT** — a mutable module global is written *without a lock*
in code reachable from concurrency roots whose combined weight is ≥ 2.
The finding anchors at each unlocked write site (that is where a lock or a
thread-local context fixes it, and where a suppression belongs).

**RACE-FORK-STATE** — a process-pool (or unknown) worker entrypoint reads
or writes a mutable module global that thread-side roots concurrently
write.  Locks do not help here: the child forks a snapshot mid-update and
a ``threading.Lock`` does not survive the fork.  The finding anchors at
the worker entrypoint's ``def`` line.

Lock awareness is lexical: a write inside ``with <lock>:`` — where the
context manager resolves to a ``threading.Lock``-family module global (or
a dotted name ending in ``lock``) — counts as locked.  ``threading.local``
globals are exempt from both rules by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from repro.analysis.findings import Finding, Severity
from repro.analysis.flow.callgraph import CallGraph, FunctionNode
from repro.analysis.flow.effects import EffectSummary, WriteSite
from repro.analysis.registry import Rule, register
from repro.analysis.rules import resolve_call_target

__all__ = ["RACE_SHARED_MUT", "RACE_FORK_STATE", "Root", "find_roots", "check_races"]


RACE_SHARED_MUT = register(
    Rule(
        id="RACE-SHARED-MUT",
        kind="flow",
        severity=Severity.ERROR,
        summary="mutable module global written without a lock from ≥2 "
        "concurrent roots",
        fix_hint="guard the write with a module lock, or give each job a "
        "thread-local context merged under a lock (see compiler/stats.py)",
    )
)

RACE_FORK_STATE = register(
    Rule(
        id="RACE-FORK-STATE",
        kind="flow",
        severity=Severity.ERROR,
        summary="process-pool worker touches a mutable global that parent "
        "threads write (locks do not survive the fork)",
        fix_hint="pass the state through the task payload, or make the "
        "worker's copy per-process scratch that never flows back",
    )
)

_EXECUTOR_CLASSES = {
    "concurrent.futures.ThreadPoolExecutor": "thread",
    "concurrent.futures.thread.ThreadPoolExecutor": "thread",
    "ThreadPoolExecutor": "thread",
    "concurrent.futures.ProcessPoolExecutor": "process",
    "concurrent.futures.process.ProcessPoolExecutor": "process",
    "ProcessPoolExecutor": "process",
}


@dataclass(frozen=True)
class Root:
    """One concurrency root: where work was handed off, to what kind of
    executor, and which project functions it enters."""

    kind: str  # "thread" | "process" | "unknown"
    owner: str  # qualname of the function containing the hand-off site
    display: str
    line: int
    label: str  # e.g. "tp.map", "executor.submit", "Thread(target=...)"
    entries: tuple[str, ...]  # project-function qualnames entered
    multi: bool  # may run >1 copy concurrently

    @property
    def weight(self) -> int:
        return 2 if self.multi else 1

    def describe(self) -> str:
        mark = " xN" if self.multi else ""
        return f"{self.label}{mark} at {self.display}:{self.line}"


# ------------------------------------------------------------- root discovery


def _executor_vars(fn: FunctionNode, imports: dict[str, str]) -> dict[str, str]:
    """Local names bound to executor instances in this function body."""
    out: dict[str, str] = {}
    for node in ast.walk(fn.node):
        value = None
        names: list[str] = []
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            value = node.value
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if (
                    isinstance(item.context_expr, ast.Call)
                    and isinstance(item.optional_vars, ast.Name)
                ):
                    target = resolve_call_target(item.context_expr.func, imports)
                    if target in _EXECUTOR_CLASSES:
                        out[item.optional_vars.id] = _EXECUTOR_CLASSES[target]
            continue
        if value is None or not names:
            continue
        target = resolve_call_target(value.func, imports)
        if target in _EXECUTOR_CLASSES:
            for name in names:
                out[name] = _EXECUTOR_CLASSES[target]
    return out


def _loop_ranges(fn: FunctionNode) -> list[tuple[int, int]]:
    ranges = []
    for node in ast.walk(fn.node):
        if isinstance(
            node,
            (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp,
             ast.DictComp, ast.GeneratorExp),
        ):
            end = getattr(node, "end_lineno", None) or node.lineno
            ranges.append((node.lineno, end))
    return ranges


def _entries_of_arg(
    graph: CallGraph, fn: FunctionNode, arg_node: ast.AST | None, arg_res
) -> tuple[str, ...]:
    """Project functions a submitted callable enters.  Handles direct
    function references, bound methods of the enclosing class
    (``self.method``), lambdas (their inlined calls belong to the enclosing
    function), and ``functools.partial``."""
    if arg_res is not None and arg_res.kind == "function":
        return (arg_res.ref,)
    if (
        isinstance(arg_node, ast.Attribute)
        and isinstance(arg_node.value, ast.Name)
        and fn.cls is not None
        and fn.params[:1] == (arg_node.value.id,)
    ):
        method = graph.method_of(fn.cls, arg_node.attr)
        return (method,) if method else ()
    if isinstance(arg_node, ast.Lambda):
        lo = arg_node.lineno
        hi = getattr(arg_node, "end_lineno", None) or lo
        hits = []
        for site in fn.calls:
            if site.callee and lo <= site.lineno <= hi:
                hits.append(site.callee)
        return tuple(sorted(set(hits)))
    if isinstance(arg_node, ast.Call):
        # functools.partial(f, ...) — recurse on the wrapped callable
        for site in fn.calls:
            if site.node is arg_node and site.external in (
                "functools.partial",
                "partial",
            ):
                inner = site.node.args[0] if site.node.args else None
                inner_res = site.args[0] if site.args else None
                return _entries_of_arg(graph, fn, inner, inner_res)
    return ()


def find_roots(graph: CallGraph) -> list[Root]:
    roots: list[Root] = []
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        info = graph.modules[fn.module]
        executors = _executor_vars(fn, info.imports)
        loops = _loop_ranges(fn)

        def in_loop(line: int) -> bool:
            return any(lo <= line <= hi for lo, hi in loops)

        for site in fn.calls:
            node = site.node
            if node is None:
                continue
            if site.method in ("submit", "map"):
                recv_name = None
                if isinstance(node.func, ast.Attribute) and isinstance(
                    node.func.value, ast.Name
                ):
                    recv_name = node.func.value.id
                kind = executors.get(recv_name) if recv_name else None
                if kind is None:
                    if site.method == "map":
                        continue  # unknown-receiver .map: too common to flag
                    # builtin-free `.submit` on an untyped receiver: assume
                    # an executor of unknown kind (participates in both rules)
                    kind = "unknown"
                arg_node = node.args[0] if node.args else None
                arg_res = site.args[0] if site.args else None
                entries = _entries_of_arg(graph, fn, arg_node, arg_res)
                if not entries:
                    continue
                roots.append(
                    Root(
                        kind=kind,
                        owner=qual,
                        display=fn.display,
                        line=site.lineno,
                        label=f"{recv_name or site.raw.split('.')[0]}.{site.method}",
                        entries=entries,
                        multi=site.method == "map" or in_loop(site.lineno),
                    )
                )
            elif site.method == "run_in_executor" and len(node.args) >= 2:
                # loop.run_in_executor(pool, fn, *args): a thread unless
                # *pool* is a local typed as something else (None is the
                # loop's default ThreadPoolExecutor)
                pool = node.args[0]
                entries = _entries_of_arg(graph, fn, node.args[1], site.args[1])
                if not entries:
                    continue
                roots.append(
                    Root(
                        kind=executors.get(getattr(pool, "id", None), "thread"),
                        owner=qual,
                        display=fn.display,
                        line=site.lineno,
                        label=site.raw,
                        entries=entries,
                        multi=True,
                    )
                )
            elif site.method == "add_done_callback":
                arg_node = node.args[0] if node.args else None
                arg_res = site.args[0] if site.args else None
                entries = _entries_of_arg(graph, fn, arg_node, arg_res)
                if not entries:
                    continue
                roots.append(
                    Root(
                        kind="thread",
                        owner=qual,
                        display=fn.display,
                        line=site.lineno,
                        label=f"{site.raw}",
                        entries=entries,
                        multi=in_loop(site.lineno),
                    )
                )
            elif site.external in ("threading.Thread", "Thread"):
                target_node = None
                target_res = None
                for name, res in site.keywords:
                    if name == "target":
                        target_res = res
                for kw in node.keywords:
                    if kw.arg == "target":
                        target_node = kw.value
                entries = _entries_of_arg(graph, fn, target_node, target_res)
                if not entries:
                    continue
                roots.append(
                    Root(
                        kind="thread",
                        owner=qual,
                        display=fn.display,
                        line=site.lineno,
                        label="Thread(target=...)",
                        entries=entries,
                        multi=in_loop(site.lineno),
                    )
                )
    return roots


# --------------------------------------------------------------- reachability


def _reachable(graph: CallGraph, entries: tuple[str, ...]) -> dict[str, tuple[str, ...]]:
    """Functions reachable from *entries* over resolved call edges, each
    mapped to one call chain (entry first) for diagnostics."""
    chains: dict[str, tuple[str, ...]] = {}
    queue: list[str] = []
    for e in entries:
        if e in graph.functions and e not in chains:
            chains[e] = (e,)
            queue.append(e)
    while queue:
        cur = queue.pop(0)
        for site in graph.functions[cur].calls:
            nxt = site.callee
            if nxt and nxt in graph.functions and nxt not in chains:
                chains[nxt] = chains[cur] + (nxt,)
                queue.append(nxt)
    return chains


# --------------------------------------------------------------------- checks


@dataclass
class _GlobalAccess:
    """How the concurrent world touches one mutable global."""

    writer_roots: list[Root] = field(default_factory=list)
    unlocked_sites: list[tuple[Root, str, WriteSite]] = field(default_factory=list)
    # (root, chain string, site)


def check_races(
    graph: CallGraph,
    summaries: dict[str, EffectSummary],
    roots: list[Root] | None = None,
) -> list[Finding]:
    roots = find_roots(graph) if roots is None else roots
    findings: list[Finding] = []
    reach = {root: _reachable(graph, root.entries) for root in roots}

    # --- RACE-SHARED-MUT -----------------------------------------------------
    access: dict[str, _GlobalAccess] = {}
    for root in roots:
        if root.kind == "process":
            continue  # workers share nothing with the parent after fork
        for fn_qual, chain in reach[root].items():
            summ = summaries.get(fn_qual)
            if summ is None:
                continue
            for g, sites in summ.write_sites.items():
                gvar = graph.globals.get(g)
                if gvar is None or gvar.kind != "mutable":
                    continue
                acc = access.setdefault(g, _GlobalAccess())
                if root not in acc.writer_roots:
                    acc.writer_roots.append(root)
                chain_str = " -> ".join(chain)
                for site in sites:
                    if not site.locked:
                        acc.unlocked_sites.append((root, chain_str, site))
    for g in sorted(access):
        acc = access[g]
        weight = sum(r.weight for r in acc.writer_roots)
        if weight < 2 or not acc.unlocked_sites:
            continue
        gvar = graph.globals[g]
        root_list = "; ".join(r.describe() for r in acc.writer_roots)
        emitted: set[tuple[str, int]] = set()
        for root, chain_str, site in acc.unlocked_sites:
            key = (site.display, site.line)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(
                Finding(
                    file=site.display,
                    line=site.line,
                    col=0,
                    rule_id=RACE_SHARED_MUT.id,
                    severity=RACE_SHARED_MUT.severity,
                    message=(
                        f"module global `{gvar.name}` ({g}) is written without "
                        f"a lock ({site.detail}) but is reachable-for-write "
                        f"from {weight} concurrent roots: {root_list}; "
                        f"write reached via {chain_str}"
                    ),
                    fix_hint=RACE_SHARED_MUT.fix_hint,
                )
            )

    # --- RACE-FORK-STATE -----------------------------------------------------
    emitted_fork: set[tuple[str, int, str]] = set()
    thread_roots = [r for r in roots if r.kind in ("thread", "unknown")]
    for proc in roots:
        if proc.kind not in ("process", "unknown"):
            continue
        for entry in proc.entries:
            entry_fn = graph.functions.get(entry)
            if entry_fn is None:
                continue
            entry_reach = _reachable(graph, (entry,))
            touched: dict[str, str] = {}  # global -> how
            for fn_qual in entry_reach:
                summ = summaries.get(fn_qual)
                if summ is None:
                    continue
                for g in summ.reads:
                    if graph.globals.get(g) and graph.globals[g].kind == "mutable":
                        touched.setdefault(g, "reads")
                for g in summ.writes:
                    if graph.globals.get(g) and graph.globals[g].kind == "mutable":
                        touched[g] = "writes"
            if not touched:
                continue
            for t in thread_roots:
                if t is proc or set(t.entries) == set(proc.entries):
                    continue
                t_writes: set[str] = set()
                for fn_qual in reach[t]:
                    summ = summaries.get(fn_qual)
                    if summ is not None:
                        t_writes.update(
                            g
                            for g in summ.writes
                            if graph.globals.get(g)
                            and graph.globals[g].kind == "mutable"
                        )
                for g in sorted(t_writes & set(touched)):
                    key = (entry_fn.display, entry_fn.lineno, g)
                    if key in emitted_fork:
                        continue
                    emitted_fork.add(key)
                    gvar = graph.globals[g]
                    findings.append(
                        Finding(
                            file=entry_fn.display,
                            line=entry_fn.lineno,
                            col=0,
                            rule_id=RACE_FORK_STATE.id,
                            severity=RACE_FORK_STATE.severity,
                            message=(
                                f"worker entrypoint `{entry_fn.name}` "
                                f"(submitted at {proc.describe()}) {touched[g]} "
                                f"mutable global `{gvar.name}` ({g}) that "
                                f"thread-side root {t.describe()} writes; the "
                                "fork may snapshot it mid-update and locks do "
                                "not survive the fork"
                            ),
                            fix_hint=RACE_FORK_STATE.fix_hint,
                        )
                    )
    return findings
