"""Project-wide call graph construction for the flow pass.

Builds, from the AST alone, a call graph over every module of the ``repro``
package: module functions, methods of locally-defined classes, module-level
global variables (classified by mutability), and one resolved
:class:`CallSite` per call expression.  Resolution is *best effort and
explicitly conservative*: a call whose target cannot be proven to be a
project function becomes an **unknown-callee** site that still carries the
externally-resolved dotted name (``time.time``, ``np.argsort`` …) and the
receiver/argument bindings, so the effect pass can interpret known external
hazards and bind parameter mutations without pretending to understand
arbitrary Python.

Receiver classes come from three places only: ``self``/``cls``, a local
bound to a constructor call, and a parameter whose annotation names a
project class — which is how a polymorphic helper such as the II-ladder
driver (``mapper: EMSMapper``) stays connected to the code it drives.

Scoping is the real thing: parameters and local assignments shadow module
globals, ``global`` declarations un-shadow them, nested functions and
lambdas extend the local scope, and import aliases resolve through
:func:`repro.analysis.rules.collect_imports` exactly as the lint rules do.
Nested function and lambda bodies are attributed to their *enclosing*
top-level function (conservative inlining): their calls and effects count
as the parent's, which over-approximates (a nested helper that is never
called still contributes) but never misses a reachable effect.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.rules import collect_imports, dotted_name

__all__ = [
    "MUTATING_METHODS",
    "Resolution",
    "CallSite",
    "GlobalVar",
    "FunctionNode",
    "ClassInfo",
    "ModuleInfo",
    "CallGraph",
    "build_callgraph",
]


#: Method names that mutate their receiver in place (the standard container
#: protocol).  Used for both parameter-mutation and global-mutation checks.
MUTATING_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "__setitem__",
        "__delitem__",
    }
)

#: External constructors whose results are immutable for our purposes.
_IMMUTABLE_CALLS = frozenset(
    {
        "frozenset",
        "tuple",
        "re.compile",
        "property",
        "operator.itemgetter",
        "operator.attrgetter",
        "operator.methodcaller",
        "collections.namedtuple",
        "typing.TypeVar",
    }
)

#: External constructors that build synchronisation primitives.
_LOCK_CALLS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Condition",
        "threading.Event",
    }
)


@dataclass(frozen=True)
class Resolution:
    """Where a bare name (or a receiver / argument) points.

    ``kind`` is one of ``"param"``, ``"local"``, ``"global"`` (a project
    module-level variable — ``ref`` is its qualified name), ``"function"``,
    ``"class"``, ``"module"`` (project entities), or ``"external"``
    (``ref`` is the resolved dotted name outside the project).
    """

    kind: str
    ref: str | None = None


@dataclass
class CallSite:
    """One call expression inside a function body.

    ``callee`` is the qualified name of a *project* function when resolution
    succeeded, else None.  ``external`` carries the import-resolved dotted
    target for non-project calls (``time.time``); ``method`` the bare
    attribute name for unresolved method calls (``append``).  ``recv`` /
    ``args`` / ``keywords`` record receiver and argument bindings for the
    effect pass's parameter-mutation propagation.  ``lock_depth`` counts the
    lexically enclosing ``with <lock>:`` blocks at the site.
    """

    lineno: int
    raw: str
    callee: str | None = None
    external: str | None = None
    method: str | None = None
    recv: Resolution | None = None
    args: tuple[Resolution, ...] = ()
    keywords: tuple[tuple[str, Resolution], ...] = ()
    lock_depth: int = 0
    node: ast.Call | None = None


@dataclass
class GlobalVar:
    """One module-level variable, with a conservative mutability class.

    ``kind`` is ``"mutable"`` (dicts, lists, sets, class instances, unknown
    constructor results), ``"immutable"`` (constants, tuples, frozensets,
    compiled regexes …), ``"thread-local"`` (``threading.local`` instances —
    per-thread by construction, exempt from race checks), or ``"lock"``
    (synchronisation primitives).
    """

    qualname: str
    module: str
    name: str
    lineno: int
    kind: str = "mutable"
    type_qualname: str | None = None


@dataclass
class FunctionNode:
    """One project function or method (nested defs fold into their parent)."""

    qualname: str
    module: str
    name: str
    node: ast.AST
    display: str
    lineno: int
    cls: str | None = None  # owning class qualname for methods
    params: tuple[str, ...] = ()
    calls: list[CallSite] = field(default_factory=list)


@dataclass
class ClassInfo:
    """A locally-defined class: its methods and project-resolved bases."""

    qualname: str
    module: str
    name: str
    lineno: int
    bases: tuple[str, ...] = ()  # qualified names (project or external)
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname


@dataclass
class ModuleInfo:
    """Everything the flow pass knows about one source module."""

    name: str
    path: Path
    display: str
    source: str
    tree: ast.Module
    imports: dict[str, str] = field(default_factory=dict)
    functions: dict[str, str] = field(default_factory=dict)  # name -> qualname
    classes: dict[str, str] = field(default_factory=dict)  # name -> qualname
    globals: dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class CallGraph:
    """The linked whole-program index."""

    package: str
    root: Path
    modules: dict[str, ModuleInfo] = field(default_factory=dict)
    functions: dict[str, FunctionNode] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)
    globals: dict[str, GlobalVar] = field(default_factory=dict)
    skipped: list[str] = field(default_factory=list)  # unparseable modules

    # ---------------------------------------------------------------- lookup

    def is_project(self, dotted: str) -> bool:
        return dotted == self.package or dotted.startswith(self.package + ".")

    def lookup(self, dotted: str) -> Resolution | None:
        """Resolve a fully-qualified dotted name to a project entity."""
        if not self.is_project(dotted):
            return None
        if dotted in self.functions:
            return Resolution("function", dotted)
        if dotted in self.classes:
            return Resolution("class", dotted)
        if dotted in self.globals:
            return Resolution("global", dotted)
        if dotted in self.modules:
            return Resolution("module", dotted)
        # attribute of a module we know?  e.g. pkg.mod.CLASS.method
        head, _, attr = dotted.rpartition(".")
        if head and head in self.classes and attr:
            meth = self.method_of(head, attr)
            if meth is not None:
                return Resolution("function", meth)
        return None

    def method_of(self, cls_qualname: str, method: str) -> str | None:
        """Resolve *method* in the class or its project-resolved bases."""
        seen = set()
        queue = [cls_qualname]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            info = self.classes.get(cur)
            if info is None:
                continue
            if method in info.methods:
                return info.methods[method]
            queue.extend(info.bases)
        return None

    def constructor_of(self, cls_qualname: str) -> str | None:
        return self.method_of(cls_qualname, "__init__")

    def is_subclass_of(self, cls_qualname: str, external_base: str) -> bool:
        """Whether the class transitively names *external_base* as a base."""
        seen = set()
        queue = [cls_qualname]
        while queue:
            cur = queue.pop(0)
            if cur in seen:
                continue
            seen.add(cur)
            if cur == external_base:
                return True
            info = self.classes.get(cur)
            if info is not None:
                queue.extend(info.bases)
        return False


# ------------------------------------------------------------- module indexing


def _module_name(path: Path, base: Path) -> str:
    rel = path.relative_to(base).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _iter_top_level(body):
    """Module-level statements, descending one level into try/if blocks
    (guarded imports and conditional constants are common)."""
    for stmt in body:
        if isinstance(stmt, (ast.If, ast.Try)):
            for inner in ast.iter_child_nodes(stmt):
                if isinstance(inner, ast.stmt):
                    yield inner
        else:
            yield stmt


def _index_module(graph: CallGraph, info: ModuleInfo) -> None:
    for stmt in _iter_top_level(info.tree.body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qual = f"{info.name}.{stmt.name}"
            info.functions[stmt.name] = qual
            graph.functions[qual] = FunctionNode(
                qualname=qual,
                module=info.name,
                name=stmt.name,
                node=stmt,
                display=info.display,
                lineno=stmt.lineno,
                params=_param_names(stmt),
            )
        elif isinstance(stmt, ast.ClassDef):
            cqual = f"{info.name}.{stmt.name}"
            info.classes[stmt.name] = cqual
            cinfo = ClassInfo(
                qualname=cqual,
                module=info.name,
                name=stmt.name,
                lineno=stmt.lineno,
            )
            graph.classes[cqual] = cinfo
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    mqual = f"{cqual}.{sub.name}"
                    cinfo.methods[sub.name] = mqual
                    graph.functions[mqual] = FunctionNode(
                        qualname=mqual,
                        module=info.name,
                        name=sub.name,
                        node=sub,
                        display=info.display,
                        lineno=sub.lineno,
                        cls=cqual,
                        params=_param_names(sub),
                    )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (
                stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    name = target.id
                    qual = f"{info.name}.{name}"
                    info.globals[name] = qual
                    graph.globals[qual] = GlobalVar(
                        qualname=qual,
                        module=info.name,
                        name=name,
                        lineno=stmt.lineno,
                    )
                    # classification happens in a second phase, once every
                    # module's classes and imports are indexed
                    graph.globals[qual].type_qualname = None
                    _PENDING_VALUES[qual] = (info, stmt.value)


#: global qualname -> (module, value expr), consumed by the classify phase.
_PENDING_VALUES: dict[str, tuple[ModuleInfo, ast.AST | None]] = {}


def _param_names(fn) -> tuple[str, ...]:
    a = fn.args
    names = [p.arg for p in a.posonlyargs] + [p.arg for p in a.args]
    if a.vararg:
        names.append(a.vararg.arg)
    names.extend(p.arg for p in a.kwonlyargs)
    if a.kwarg:
        names.append(a.kwarg.arg)
    return tuple(names)


def _resolve_dotted(graph: CallGraph, info: ModuleInfo, dotted: str) -> str:
    """Expand the leading alias of *dotted* through the module's imports."""
    root, _, rest = dotted.partition(".")
    origin = info.imports.get(root)
    if origin is None:
        # a bare project-module sibling reference (rare) or a builtin
        return dotted
    return f"{origin}.{rest}" if rest else origin


def _classify_global(graph: CallGraph, gvar: GlobalVar) -> None:
    info, value = _PENDING_VALUES.get(gvar.qualname, (None, None))
    if value is None:
        gvar.kind = "immutable"  # bare annotation, no value
        return
    if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
        gvar.kind = "mutable"
        return
    if isinstance(value, ast.Call):
        target = dotted_name(value.func)
        if target is None:
            gvar.kind = "mutable"
            return
        resolved = _resolve_dotted(graph, info, target)
        if resolved in _IMMUTABLE_CALLS:
            gvar.kind = "immutable"
        elif resolved in _LOCK_CALLS:
            gvar.kind = "lock"
        elif resolved == "threading.local" or (
            graph.is_project(resolved)
            and resolved in graph.classes
            and graph.is_subclass_of(resolved, "threading.local")
        ):
            gvar.kind = "thread-local"
        elif resolved in ("set", "dict", "list", "collections.deque",
                          "collections.defaultdict", "collections.OrderedDict",
                          "collections.Counter"):
            gvar.kind = "mutable"
        elif graph.is_project(resolved) and resolved in graph.classes:
            gvar.kind = "mutable"
            gvar.type_qualname = resolved
        else:
            gvar.kind = "mutable"  # unknown constructor: assume the worst
        return
    # constants, tuples of constants, names, attributes, f-strings, lambdas,
    # arithmetic over constants: rebinding would need a `global` statement,
    # which is detected separately, so treat the value itself as immutable
    gvar.kind = "immutable"


# ------------------------------------------------------------- function linking


class _FunctionLinker(ast.NodeVisitor):
    """Walks one top-level function body, resolving names and recording
    every call site (nested defs and lambdas fold into this function)."""

    def __init__(self, graph: CallGraph, info: ModuleInfo, fn: FunctionNode):
        self.graph = graph
        self.info = info
        self.fn = fn
        self.global_decls: set[str] = set()
        self.locals: set[str] = set()
        self.var_types: dict[str, str] = {}  # local/param name -> class qualname
        self.scope_stack: list[set[str]] = []  # nested fn/lambda params
        self.lock_depth = 0
        if fn.cls is not None and fn.params:
            # `self` / `cls` carry the enclosing class
            self.var_types[fn.params[0]] = fn.cls
        # a parameter annotated with a project class carries that class:
        # method calls on it resolve (to the annotated class's own methods;
        # overrides in subclasses stay invisible, as everywhere else here)
        args = fn.node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            dotted = dotted_name(arg.annotation) if arg.annotation else None
            if dotted is None:
                continue
            cls = info.classes.get(dotted) or _resolve_dotted(graph, info, dotted)
            if cls in graph.classes:
                self.var_types.setdefault(arg.arg, cls)

    # -- scope bookkeeping ----------------------------------------------------

    @staticmethod
    def _binding_names(target: ast.AST):
        """Names a store target *binds* (``x = ...``, ``x, y = ...``).
        ``obj.attr = ...`` and ``d[k] = ...`` mutate an existing object and
        bind nothing — treating their roots as locals would shadow the
        very global writes this analysis exists to see."""
        if isinstance(target, ast.Name):
            yield target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from _FunctionLinker._binding_names(elt)
        elif isinstance(target, ast.Starred):
            yield from _FunctionLinker._binding_names(target.value)

    def _collect_locals(self, node) -> None:
        """Pre-scan for assigned names (they shadow globals everywhere in
        the function, per Python scoping)."""
        for sub in ast.walk(node):
            if isinstance(sub, ast.Global):
                self.global_decls.update(sub.names)
            elif isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for t in targets:
                    self.locals.update(self._binding_names(t))
            elif isinstance(sub, (ast.For, ast.AsyncFor)):
                self.locals.update(self._binding_names(sub.target))
            elif isinstance(sub, (ast.With, ast.AsyncWith)):
                for item in sub.items:
                    if item.optional_vars is not None:
                        self.locals.update(
                            self._binding_names(item.optional_vars)
                        )
            elif isinstance(sub, ast.comprehension):
                self.locals.update(self._binding_names(sub.target))
            elif isinstance(sub, ast.ExceptHandler) and sub.name:
                self.locals.add(sub.name)
            elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.locals.add(sub.name)
        self.locals -= self.global_decls

    def resolve_name(self, name: str) -> Resolution:
        """Scope-ordered resolution of a bare name at a use site."""
        for scope in reversed(self.scope_stack):
            if name in scope:
                return Resolution("local")
        if name in self.fn.params:
            return Resolution("param", name)
        if name in self.locals and name not in self.global_decls:
            return Resolution("local")
        if name in self.info.functions:
            return Resolution("function", self.info.functions[name])
        if name in self.info.classes:
            return Resolution("class", self.info.classes[name])
        if name in self.info.globals:
            return Resolution("global", self.info.globals[name])
        origin = self.info.imports.get(name)
        if origin is not None:
            hit = self.graph.lookup(origin)
            if hit is not None:
                return hit
            return Resolution("external", origin)
        return Resolution("external", name)  # builtin or truly unknown

    def resolve_expr(self, node: ast.AST) -> Resolution:
        """Resolution of an arbitrary expression used as receiver/argument."""
        if isinstance(node, ast.Name):
            res = self.resolve_name(node.id)
            if res.kind == "param":
                return res
            if res.kind == "local":
                cls = self.var_types.get(node.id)
                return Resolution("local", cls)
            return res
        dotted = dotted_name(node)
        if dotted is not None:
            resolved = _resolve_dotted(self.graph, self.info, dotted)
            hit = self.graph.lookup(resolved)
            if hit is not None:
                return hit
            root = dotted.partition(".")[0]
            root_res = self.resolve_name(root)
            if root_res.kind in ("param", "local"):
                return root_res
            return Resolution("external", resolved)
        if isinstance(node, ast.Call):
            ctor = self.class_of_call(node)
            if ctor is not None:
                return Resolution("local", ctor)
        return Resolution("local")

    def class_of_call(self, node: ast.Call) -> str | None:
        """The project class a call constructs, if any."""
        target = dotted_name(node.func)
        if target is None:
            return None
        res = self.resolve_name(target.partition(".")[0])
        if res.kind == "class" and "." not in target:
            return res.ref
        resolved = _resolve_dotted(self.graph, self.info, target)
        if self.graph.is_project(resolved) and resolved in self.graph.classes:
            return resolved
        return None

    # -- traversal ------------------------------------------------------------

    def run(self) -> None:
        self._collect_locals(self.fn.node)
        for stmt in self.fn.node.body:
            self.visit(stmt)

    def visit_FunctionDef(self, node) -> None:
        self.scope_stack.append(set(_param_names(node)) | {node.name})
        self.generic_visit(node)
        self.scope_stack.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node) -> None:
        self.scope_stack.append(set(_param_names(node)))
        self.generic_visit(node)
        self.scope_stack.pop()

    def _is_lock_item(self, expr: ast.AST) -> bool:
        res = self.resolve_expr(expr)
        if res.kind == "global" and res.ref in self.graph.globals:
            if self.graph.globals[res.ref].kind == "lock":
                return True
        dotted = dotted_name(expr)
        return dotted is not None and "lock" in dotted.rsplit(".", 1)[-1].lower()

    def visit_With(self, node) -> None:
        locked = sum(1 for item in node.items if self._is_lock_item(item.context_expr))
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self._note_with_type(item)
        self.lock_depth += locked
        for stmt in node.body:
            self.visit(stmt)
        self.lock_depth -= locked

    visit_AsyncWith = visit_With

    def _note_with_type(self, item: ast.withitem) -> None:
        if isinstance(item.optional_vars, ast.Name) and isinstance(
            item.context_expr, ast.Call
        ):
            cls = self.class_of_call(item.context_expr)
            if cls is not None:
                self.var_types[item.optional_vars.id] = cls

    def visit_Assign(self, node) -> None:
        if isinstance(node.value, ast.Call):
            cls = self.class_of_call(node.value)
            if cls is not None:
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        self.var_types[t.id] = cls
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.fn.calls.append(self._resolve_call(node))
        self.generic_visit(node)

    def _resolve_call(self, node: ast.Call) -> CallSite:
        raw = dotted_name(node.func) or "<expr>"
        args = tuple(self.resolve_expr(a) for a in node.args)
        keywords = tuple(
            (kw.arg, self.resolve_expr(kw.value))
            for kw in node.keywords
            if kw.arg is not None
        )
        site = CallSite(
            lineno=node.lineno,
            raw=raw,
            args=args,
            keywords=keywords,
            lock_depth=self.lock_depth,
            node=node,
        )
        func = node.func
        if isinstance(func, ast.Name):
            res = self.resolve_name(func.id)
            if res.kind == "function":
                site.callee = res.ref
            elif res.kind == "class":
                ctor = self.graph.constructor_of(res.ref)
                site.callee = ctor
                site.external = None if ctor else res.ref
            elif res.kind == "external":
                site.external = res.ref
            return site
        if isinstance(func, ast.Attribute):
            method = func.attr
            site.method = method
            dotted = dotted_name(func)
            if dotted is not None:
                resolved = _resolve_dotted(self.graph, self.info, dotted)
                hit = self.graph.lookup(resolved)
                if hit is not None and hit.kind == "function":
                    site.callee = hit.ref
                    return site
                if hit is not None and hit.kind == "class":
                    ctor = self.graph.constructor_of(hit.ref)
                    site.callee = ctor
                    return site
            recv = self.resolve_expr(func.value)
            site.recv = recv
            cls = None
            if recv.kind == "global" and recv.ref in self.graph.globals:
                cls = self.graph.globals[recv.ref].type_qualname
            elif recv.kind in ("param", "local"):
                if recv.kind == "param":
                    cls = self.var_types.get(recv.ref)
                else:
                    cls = recv.ref  # resolve_expr stores the class here
            elif recv.kind == "class":
                cls = recv.ref
            if cls is not None:
                target = self.graph.method_of(cls, method)
                if target is not None:
                    site.callee = target
                    return site
            if recv.kind == "external":
                site.external = f"{recv.ref}.{method}"
            return site
        # call of an arbitrary expression: unknown callee
        return site


# ------------------------------------------------------------------ the builder


def default_root() -> Path:
    from repro.analysis.lint import default_root as lint_root

    return lint_root()


def build_callgraph(root: Path | None = None) -> CallGraph:
    """Parse and link every module under *root* (default: the ``repro``
    package).  Unparseable modules are recorded in ``graph.skipped`` — the
    lint pass owns the parse-error finding."""
    root = root or default_root()
    base = root.parent
    graph = CallGraph(package=root.name, root=root)
    _PENDING_VALUES.clear()
    paths = [root] if root.is_file() else sorted(root.rglob("*.py"))
    for path in paths:
        display = str(path.relative_to(base))
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError):
            graph.skipped.append(display)
            continue
        name = _module_name(path, base)
        info = ModuleInfo(
            name=name,
            path=path,
            display=display,
            source=source,
            tree=tree,
            imports=collect_imports(tree),
        )
        graph.modules[name] = info
    for name in sorted(graph.modules):
        _index_module(graph, graph.modules[name])
    # resolve class bases now that every module is indexed
    for cqual in sorted(graph.classes):
        cinfo = graph.classes[cqual]
        info = graph.modules[cinfo.module]
        stmt = _find_classdef(info, cinfo.name)
        if stmt is not None:
            bases = []
            for b in stmt.bases:
                dotted = dotted_name(b)
                if dotted is None:
                    continue
                resolved = _resolve_dotted(graph, info, dotted)
                if not graph.is_project(resolved) and dotted in info.classes:
                    resolved = info.classes[dotted]
                bases.append(resolved)
            cinfo.bases = tuple(bases)
    for qual in sorted(graph.globals):
        _classify_global(graph, graph.globals[qual])
    _PENDING_VALUES.clear()
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        _FunctionLinker(graph, graph.modules[fn.module], fn).run()
    return graph


def _find_classdef(info: ModuleInfo, name: str) -> ast.ClassDef | None:
    for stmt in _iter_top_level(info.tree.body):
        if isinstance(stmt, ast.ClassDef) and stmt.name == name:
            return stmt
    return None
