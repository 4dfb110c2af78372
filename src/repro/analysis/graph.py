"""Whole-program symbol table and conservative call graph.

The per-file rules in this package see one AST at a time; a wall-clock
read hidden one call deep inside a helper shipped to a process worker
is invisible to them.  :class:`ProjectGraph` closes that hole: it
parses every module of the linted tree once, builds a symbol table
(modules, classes, functions — including nested functions and lambdas),
and then records a *conservative* edge set between functions:

* **call** — a direct call whose callee resolves through the module's
  (absolutized) import table, the enclosing scope chain, ``self.method``
  within a class (following project base classes), or a local variable
  whose constructor class is known (``x = Foo(); x.bar()``);
* **ref** — a bare reference to a known function (callbacks, functions
  stored in tables, ``functools.partial(fn, ...)`` arguments);
* **closure** — the edge from a function to the functions and lambdas
  defined inside it (if the outer runs in a worker, its closures can).

**Entry points** are declared *in the analyzed source itself*, at the
dispatch sites where callables cross an execution boundary:

* ``_WORKER_ENTRY_POINTS = ("fn", "Class.method", ...)`` — a module-level
  tuple naming functions in that module whose bodies execute inside
  workers (e.g. the process backend's forked ``_fork_slice``).
* ``_DISPATCH_POINTS = ("MapReduceJob", "RDD.map", ...)`` — callables
  defined in that module whose *function-valued arguments* are shipped
  to workers.  At every call site of a declared dispatch point, the
  graph seeds an entry point for each function referenced in the
  arguments (lambdas, named functions, ``self._method`` references,
  factories called inside list comprehensions, and — one hop — local
  variables assigned from such expressions).

Matching is conservative: an attribute call whose receiver type cannot
be resolved matches a declared ``Class.method`` spec by method name
alone.  Over-approximation only ever *adds* reachability, which is the
safe direction for the WRK001 worker-purity guarantee.

Everything is deterministic: modules are processed in sorted path
order, edges and seeds are kept in first-insertion order of a sorted
walk, and :meth:`ProjectGraph.reachable_from_entries` breaks ties by
qualname so ``--why`` chains are stable across runs and machines.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Optional

from .core import _module_name, _noqa_map, iter_python_files

# Edge/ClassNode/EntryPoint stay importable for the graph tests but are
# internal data-model details; the supported surface is the four below.
__all__ = [
    "FunctionNode",
    "ModuleNode",
    "ProjectGraph",
    "build_graph",
]

#: module-level declaration names read by the graph builder
WORKER_ENTRY_DECL = "_WORKER_ENTRY_POINTS"
DISPATCH_DECL = "_DISPATCH_POINTS"

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


@dataclass(frozen=True)
class Edge:
    """One outgoing edge of a function node."""

    target: str  # callee qualname
    kind: str  # "call" | "ref" | "closure"
    lineno: int  # call/reference site in the caller's file


@dataclass
class FunctionNode:
    """One function, method, nested function, or lambda."""

    qualname: str
    module: str
    name: str
    lineno: int
    node: ast.AST
    cls: Optional[str] = None  # owning class qualname
    parent: Optional[str] = None  # enclosing function qualname
    params: tuple = ()
    edges: list = field(default_factory=list)

    def add_edge(self, target: str, kind: str, lineno: int) -> None:
        """Append an outgoing edge, deduplicating exact repeats."""
        edge = Edge(target, kind, lineno)
        if edge not in self.edges:
            self.edges.append(edge)


@dataclass
class ClassNode:
    """One class: its methods, bases, and inferred attribute types."""

    qualname: str
    module: str
    name: str
    bases: tuple = ()  # resolved dotted names (best effort)
    methods: dict = field(default_factory=dict)  # name -> qualname
    attr_types: dict = field(default_factory=dict)  # self.X -> class qualname


@dataclass
class ModuleNode:
    """One parsed module of the project."""

    name: str
    path: str
    tree: ast.Module
    lines: list
    imports: dict = field(default_factory=dict)  # alias -> absolute dotted
    bindings: set = field(default_factory=set)  # top-level names
    classes: dict = field(default_factory=dict)  # name -> ClassNode
    functions: dict = field(default_factory=dict)  # top-level name -> qualname
    all_entries: list = field(default_factory=list)  # (name, node)
    exports: dict = field(default_factory=dict)  # _EXPORTS name -> (mod, attr)
    star_imports: list = field(default_factory=list)  # absolute dotted modules
    worker_entries: tuple = ()
    dispatch_decls: tuple = ()
    noqa: dict = field(default_factory=dict)  # line -> frozenset of codes


@dataclass(frozen=True)
class EntryPoint:
    """A worker entry seed: the function plus where it was declared."""

    qualname: str
    reason: str  # human phrase for --why output
    path: str
    lineno: int


# ---------------------------------------------------------------- parsing
def _absolutize_imports(
    tree: ast.Module, module: Optional[str], *, is_package: bool = False
) -> tuple:
    """(alias -> absolute dotted origin, [star-imported modules]).

    Relative imports are resolved against *module*'s package so that
    ``from ..metrics import Counters`` inside ``repro.exec.backend``
    maps ``Counters`` to ``repro.metrics.Counters``.  For a package
    ``__init__`` the level-1 base is the package itself, not its parent.
    """
    table: dict[str, str] = {}
    stars: list[str] = []
    if not module:
        pkg_parts = []
    elif is_package:
        pkg_parts = module.split(".")
    else:
        pkg_parts = module.split(".")[:-1]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    table[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base_parts = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                base = ".".join(base_parts + ([node.module] if node.module else []))
            else:
                base = node.module or ""
            if not base:
                continue
            for alias in node.names:
                if alias.name == "*":
                    stars.append(base)
                else:
                    table[alias.asname or alias.name] = f"{base}.{alias.name}"
    return table, stars


def _literal_str_tuple(node: ast.AST) -> Optional[tuple]:
    if not isinstance(node, (ast.Tuple, ast.List)):
        return None
    out = []
    for elt in node.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        out.append(elt.value)
    return tuple(out)


def _module_level_decls(mod: ModuleNode) -> None:
    """Collect __all__, _EXPORTS, entry/dispatch declarations, bindings."""
    for stmt in mod.tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if target.id == "__all__":
                for elt in getattr(stmt.value, "elts", []):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        mod.all_entries.append((elt.value, elt))
            elif target.id == "_EXPORTS" and isinstance(stmt.value, ast.Dict):
                for key, value in zip(stmt.value.keys, stmt.value.values):
                    pair = _literal_str_tuple(value)
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and pair is not None
                        and len(pair) == 2
                    ):
                        mod.exports[key.value] = pair
            elif target.id == WORKER_ENTRY_DECL:
                mod.worker_entries = _literal_str_tuple(stmt.value) or ()
            elif target.id == DISPATCH_DECL:
                mod.dispatch_decls = _literal_str_tuple(stmt.value) or ()


class _Collector(ast.NodeVisitor):
    """First pass over one module: classes, functions, lambdas, qualnames."""

    def __init__(self, graph: "ProjectGraph", mod: ModuleNode):
        self.graph = graph
        self.mod = mod
        self._cls_stack: list[ClassNode] = []
        self._fn_stack: list[FunctionNode] = []

    def _qualname(self, name: str) -> str:
        if self._fn_stack:
            return f"{self._fn_stack[-1].qualname}.{name}"
        if self._cls_stack:
            return f"{self._cls_stack[-1].qualname}.{name}"
        return f"{self.mod.name}.{name}"

    def _register(self, node, name: str) -> FunctionNode:
        fn = FunctionNode(
            qualname=self._qualname(name),
            module=self.mod.name,
            name=name,
            lineno=node.lineno,
            node=node,
            cls=self._cls_stack[-1].qualname if self._cls_stack else None,
            parent=self._fn_stack[-1].qualname if self._fn_stack else None,
            params=tuple(
                a.arg
                for a in (
                    node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                )
            ),
        )
        self.graph.functions[fn.qualname] = fn
        node._graph_qualname = fn.qualname  # type: ignore[attr-defined]
        return fn

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        qualname = self._qualname(node.name)
        cls = ClassNode(qualname=qualname, module=self.mod.name, name=node.name)
        bases = []
        for base in node.bases:
            dotted = _dotted_or_local(base, self.mod)
            if dotted:
                bases.append(dotted)
        cls.bases = tuple(bases)
        self.graph.classes[qualname] = cls
        if not self._cls_stack and not self._fn_stack:
            self.mod.classes[node.name] = cls
        self._cls_stack.append(cls)
        self.generic_visit(node)
        self._cls_stack.pop()

    def _visit_function(self, node, name: str) -> None:
        fn = self._register(node, name)
        if self._cls_stack and not self._fn_stack:
            self._cls_stack[-1].methods[name] = fn.qualname
        elif not self._fn_stack:
            self.mod.functions[name] = fn.qualname
        self._fn_stack.append(fn)
        self.generic_visit(node)
        self._fn_stack.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node, node.name)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._visit_function(node, f"<lambda:{node.lineno}>")


def _resolve_dotted(node: ast.AST, mod: ModuleNode) -> Optional[str]:
    """Dotted origin of a Name/Attribute chain through the import table."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.insert(0, node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    origin = mod.imports.get(node.id, node.id)
    parts.insert(0, origin)
    return ".".join(parts)


def _dotted_or_local(node: ast.AST, mod: ModuleNode) -> Optional[str]:
    """Like :func:`_resolve_dotted`, but a bare name bound at the top
    level of *mod* itself is qualified with the module (``Base`` inside
    ``pkg.d`` -> ``pkg.d.Base``), so same-module classes resolve."""
    if isinstance(node, ast.Name):
        return _lookup_name(node.id, mod)
    return _resolve_dotted(node, mod)


# ------------------------------------------------------------------- graph
class ProjectGraph:
    """The parsed project: modules, symbols, edges, and entry points."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleNode] = {}
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        self.entry_points: list[EntryPoint] = []
        #: dotted symbols referenced per module: module -> set of dotted
        self.references: dict[str, set] = {}
        self._dispatch_specs = {"callables": set(), "methods": {}}
        self._subclass_cache: dict[str, set] = {}

    # -- symbol resolution -------------------------------------------------
    def resolve_symbol(self, dotted: Optional[str], _depth: int = 0) -> Optional[str]:
        """Canonical qualname for *dotted*, following package re-exports.

        ``repro.exec.SerialBackend`` resolves through the ``repro.exec``
        package's own import table to ``repro.exec.backend.SerialBackend``.
        """
        if dotted is None or _depth > 4:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        head, _, tail = dotted.rpartition(".")
        if not head:
            return None
        mod = self.modules.get(head)
        if mod is not None:
            if tail in mod.functions:
                return mod.functions[tail]
            if tail in mod.classes:
                return mod.classes[tail].qualname
            if tail in mod.imports:
                return self.resolve_symbol(mod.imports[tail], _depth + 1)
        # ``pkg.mod.Class.method`` — resolve the class, then the method.
        cls = self.resolve_symbol(head, _depth + 1)
        if cls in self.classes:
            return self.find_method(cls, tail)
        return None

    def find_method(self, cls_qualname: str, name: str) -> Optional[str]:
        """Locate *name* on a class or (project-known) ancestors."""
        seen = set()
        queue = [cls_qualname]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            cls = self.classes.get(current)
            if cls is None:
                continue
            if name in cls.methods:
                return cls.methods[name]
            queue.extend(self.resolve_symbol(b) or b for b in cls.bases)
        return None

    def subclasses_of(self, cls_qualname: str) -> set:
        """The project-known subclass closure of a class (inclusive)."""
        cached = self._subclass_cache.get(cls_qualname)
        if cached is not None:
            return cached
        out = {cls_qualname}
        changed = True
        while changed:
            changed = False
            for cls in self.classes.values():
                if cls.qualname in out:
                    continue
                resolved = {self.resolve_symbol(b) or b for b in cls.bases}
                if resolved & out:
                    out.add(cls.qualname)
                    changed = True
        self._subclass_cache[cls_qualname] = out
        return out

    def module_of(self, qualname: str) -> Optional[ModuleNode]:
        """The :class:`ModuleNode` a function qualname was defined in."""
        fn = self.functions.get(qualname)
        if fn is not None:
            return self.modules.get(fn.module)
        return None

    # -- reachability ------------------------------------------------------
    def reachable_from_entries(self) -> dict:
        """BFS over all entry points at once.

        Returns ``qualname -> (entry_point, parent_qualname, via_edge)``
        with deterministic tie-breaking (entry points and edges visited
        in sorted/insertion order), so every reachable function has one
        stable witness chain for ``--why``.
        """
        parents: dict[str, tuple] = {}
        queue: list[str] = []
        for entry in sorted(
            self.entry_points, key=lambda e: (e.qualname, e.path, e.lineno)
        ):
            if entry.qualname in parents:
                continue
            parents[entry.qualname] = (entry, None, None)
            queue.append(entry.qualname)
        while queue:
            current = queue.pop(0)
            fn = self.functions.get(current)
            if fn is None:
                continue
            entry = parents[current][0]
            for edge in fn.edges:
                if edge.target not in parents:
                    parents[edge.target] = (entry, current, edge)
                    queue.append(edge.target)
        return parents

    def chain(self, parents: dict, qualname: str) -> list:
        """Witness chain entry → … → *qualname* as (qualname, edge) pairs."""
        steps: list[tuple] = []
        current = qualname
        while current is not None:
            entry, parent, edge = parents[current]
            steps.append((current, edge))
            current = parent
        steps.reverse()
        return steps

    # -- serialization -----------------------------------------------------
    def to_json(self) -> dict:
        """JSON document for ``--graph-dump`` (stable ordering)."""
        return {
            "version": 1,
            "modules": {
                name: {
                    "path": mod.path,
                    "worker_entry_points": list(mod.worker_entries),
                    "dispatch_points": list(mod.dispatch_decls),
                }
                for name, mod in sorted(self.modules.items())
            },
            "functions": {
                qualname: {
                    "module": fn.module,
                    "line": fn.lineno,
                    "edges": [
                        {"target": e.target, "kind": e.kind, "line": e.lineno}
                        for e in fn.edges
                    ],
                }
                for qualname, fn in sorted(self.functions.items())
            },
            "entry_points": [
                {
                    "function": e.qualname,
                    "reason": e.reason,
                    "path": e.path,
                    "line": e.lineno,
                }
                for e in sorted(
                    self.entry_points, key=lambda e: (e.qualname, e.path, e.lineno)
                )
            ],
        }


# ------------------------------------------------------------- edge builder
class _FunctionScan:
    """Second pass: edges, references, and dispatch-site entry points."""

    def __init__(self, graph: ProjectGraph, mod: ModuleNode):
        self.graph = graph
        self.mod = mod
        self.refs = graph.references.setdefault(mod.name, set())
        #: dispatch specs: (decl_module, spec) for every declaration
        self.dispatch = graph._dispatch_specs

    # -- local context -----------------------------------------------------
    def scan_module(self) -> None:
        for fn in sorted(
            (f for f in self.graph.functions.values() if f.module == self.mod.name),
            key=lambda f: (f.lineno, f.qualname),
        ):
            self._scan_function(fn)
        # Module-level statements (outside any def) also reference symbols
        # and may call dispatch points.
        for node in self._own_nodes(self.mod.tree):
            self._record_references(node, None, {})
            if isinstance(node, ast.Call):
                self._match_dispatch(node, None, {})

    @staticmethod
    def _own_nodes(root) -> Iterable[ast.AST]:
        """Walk *root* without descending into nested function bodies."""
        stack = list(ast.iter_child_nodes(root))
        while stack:
            node = stack.pop()
            yield node
            if not isinstance(node, _FUNC_NODES):
                stack.extend(ast.iter_child_nodes(node))

    def _local_types(self, fn: FunctionNode) -> dict:
        """Local var -> class qualname, from ``x = ClassName(...)`` sites."""
        types: dict[str, str] = {}
        for node in self._own_nodes(fn.node):
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
            ):
                dotted = _dotted_or_local(node.value.func, self.mod)
                resolved = self.graph.resolve_symbol(dotted)
                if resolved in self.graph.classes:
                    types[node.targets[0].id] = resolved
        # Annotated parameters: ``def f(backend: ExecutorBackend)``.
        args = getattr(fn.node, "args", None)
        if args is not None:
            for arg in args.posonlyargs + args.args + args.kwonlyargs:
                resolved = _annotation_class(arg.annotation, self.mod, self.graph)
                if resolved is not None:
                    types[arg.arg] = resolved
        return types

    def _scan_function(self, fn: FunctionNode) -> None:
        local_types = self._local_types(fn)
        for node in self._own_nodes(fn.node):
            if isinstance(node, _FUNC_NODES):
                fn.add_edge(
                    node._graph_qualname, "closure", node.lineno  # type: ignore[attr-defined]
                )
                continue
            if isinstance(node, ast.Call):
                self._scan_call(node, fn, local_types)
            self._record_references(node, fn, local_types)

    # -- resolution helpers ------------------------------------------------
    def _resolve_callable(self, node: ast.AST, fn: Optional[FunctionNode], local_types: dict) -> Optional[str]:
        """Qualname of the function/class a callee expression denotes."""
        if isinstance(node, ast.Name):
            # Nested function in an enclosing scope chain?
            scope = fn
            while scope is not None:
                nested = self.graph.functions.get(f"{scope.qualname}.{node.id}")
                if nested is not None:
                    return nested.qualname
                scope = self.graph.functions.get(scope.parent) if scope.parent else None
            # Method of the enclosing class referenced bare (rare) — skip.
            return self.graph.resolve_symbol(_lookup_name(node.id, self.mod))
        if isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and fn is not None and fn.cls:
                    # Method via self/cls, or a typed instance attribute.
                    cls = self.graph.classes.get(fn.cls)
                    method = self.graph.find_method(fn.cls, node.attr)
                    if method is not None:
                        return method
                    if cls is not None and node.attr in cls.attr_types:
                        return None  # typed attr, not itself callable here
                    return None
                if base.id in local_types:
                    return self.graph.find_method(local_types[base.id], node.attr)
                dotted = _resolve_dotted(node, self.mod)
                return self.graph.resolve_symbol(dotted)
            if (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and fn is not None
                and fn.cls
            ):
                # ``self.executor.run_tasks`` — typed instance attribute.
                cls = self.graph.classes.get(fn.cls)
                if cls is not None and base.attr in cls.attr_types:
                    return self.graph.find_method(cls.attr_types[base.attr], node.attr)
        return None

    def _scan_call(self, node: ast.Call, fn: FunctionNode, local_types: dict) -> None:
        resolved = self._resolve_callable(node.func, fn, local_types)
        if resolved is not None:
            if resolved in self.graph.classes:
                init = self.graph.find_method(resolved, "__init__")
                if init is not None:
                    fn.add_edge(init, "call", node.lineno)
            else:
                fn.add_edge(resolved, "call", node.lineno)
        # functools.partial(fn, ...): the partial's target is as good as
        # called — record a call edge (the ref pass would only add "ref").
        dotted = _resolve_dotted(node.func, self.mod)
        if dotted in ("functools.partial", "partial") and node.args:
            target = self._resolve_callable(node.args[0], fn, local_types)
            if target is not None and target in self.graph.functions:
                fn.add_edge(target, "call", node.lineno)
        self._match_dispatch(node, fn, local_types)

    def _record_references(self, node: ast.AST, fn: Optional[FunctionNode], local_types: dict) -> None:
        """Cross-module reference set (API002) + ref edges to functions."""
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            dotted = _lookup_name(node.id, self.mod)
            if dotted is not None:
                self.refs.add(dotted)
                resolved = self.graph.resolve_symbol(dotted)
                if resolved is not None:
                    self.refs.add(resolved)
                if fn is not None and resolved in self.graph.functions:
                    fn.add_edge(resolved, "ref", node.lineno)
            # A bare reference to a function defined in an enclosing
            # scope (callback passed by name).
            if fn is not None:
                scope: Optional[FunctionNode] = fn
                while scope is not None:
                    nested = self.graph.functions.get(f"{scope.qualname}.{node.id}")
                    if nested is not None:
                        fn.add_edge(nested.qualname, "ref", node.lineno)
                        break
                    scope = (
                        self.graph.functions.get(scope.parent)
                        if scope.parent
                        else None
                    )
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            dotted = _resolve_dotted(node, self.mod)
            if dotted is not None:
                self.refs.add(dotted)
                resolved = self.graph.resolve_symbol(dotted)
                if resolved is not None:
                    self.refs.add(resolved)
                    if fn is not None and resolved in self.graph.functions:
                        fn.add_edge(resolved, "ref", node.lineno)
            if (
                fn is not None
                and fn.cls
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
            ):
                method = self.graph.find_method(fn.cls, node.attr)
                if method is not None:
                    fn.add_edge(method, "ref", node.lineno)

    # -- dispatch sites ----------------------------------------------------
    def _match_dispatch(self, node: ast.Call, fn: Optional[FunctionNode], local_types: dict) -> Optional[str]:
        spec = self._dispatch_spec_for(node, fn, local_types)
        if spec is None:
            return None
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for target in self._function_refs(arg, fn, local_types):
                self._seed(target, spec, node)
        return spec

    def _dispatch_spec_for(self, node: ast.Call, fn, local_types: dict) -> Optional[str]:
        specs = self.dispatch
        if not specs:
            return None
        func = node.func
        if isinstance(func, ast.Attribute):
            by_attr = specs["methods"].get(func.attr)
            if not by_attr:
                return None
            receiver_cls: Optional[str] = None
            base = func.value
            if isinstance(base, ast.Name):
                if base.id in ("self", "cls") and fn is not None and fn.cls:
                    receiver_cls = fn.cls
                elif base.id in local_types:
                    receiver_cls = local_types[base.id]
            elif (
                isinstance(base, ast.Attribute)
                and isinstance(base.value, ast.Name)
                and base.value.id == "self"
                and fn is not None
                and fn.cls
            ):
                cls = self.graph.classes.get(fn.cls)
                if cls is not None:
                    receiver_cls = cls.attr_types.get(base.attr)
            if receiver_cls is None:
                # Unknown receiver: conservative name-only match.
                return f"{sorted(by_attr)[0]}.{func.attr}"
            for cls_qualname in sorted(by_attr):
                if receiver_cls in self.graph.subclasses_of(cls_qualname):
                    return f"{cls_qualname}.{func.attr}"
            return None
        dotted = _dotted_or_local(func, self.mod)
        resolved = self.graph.resolve_symbol(dotted)
        if resolved in specs["callables"]:
            return resolved
        return None

    def _function_refs(self, expr: ast.AST, fn, local_types: dict) -> list:
        """Function qualnames referenced anywhere inside *expr*.

        Covers lambdas, named references, ``self._method``, callee
        functions of calls inside the expression (closure factories in
        list comprehensions), and — one hop — local variables assigned
        from such expressions in the enclosing function.
        """
        out: list[str] = []

        def visit(node: ast.AST, hop: int) -> None:
            for sub in ast.walk(node):
                if isinstance(sub, _FUNC_NODES):
                    qual = getattr(sub, "_graph_qualname", None)
                    if qual is not None and qual not in out:
                        out.append(qual)
                elif isinstance(sub, (ast.Name, ast.Attribute)) and isinstance(
                    getattr(sub, "ctx", ast.Load()), ast.Load
                ):
                    resolved = self._resolve_callable(sub, fn, local_types)
                    if resolved in self.graph.functions and resolved not in out:
                        out.append(resolved)
                    elif resolved in self.graph.classes:
                        # A shipped class: seed every method (conservative).
                        cls = self.graph.classes[resolved]
                        for method in sorted(cls.methods.values()):
                            if method not in out:
                                out.append(method)
                    elif (
                        isinstance(sub, ast.Name)
                        and hop == 0
                        and fn is not None
                    ):
                        # One-hop local flow: fns = [...]; run_tasks(fns).
                        for assign in self._own_nodes(fn.node):
                            if (
                                isinstance(assign, ast.Assign)
                                and any(
                                    isinstance(t, ast.Name) and t.id == sub.id
                                    for t in assign.targets
                                )
                            ):
                                visit(assign.value, hop + 1)

        visit(expr, 0)
        return out

    def _seed(self, qualname: str, spec: str, node: ast.Call) -> None:
        entry = EntryPoint(
            qualname=qualname,
            reason=f"shipped via dispatch point {spec}",
            path=self.mod.path,
            lineno=node.lineno,
        )
        if entry not in self.graph.entry_points:
            self.graph.entry_points.append(entry)


def _lookup_name(name: str, mod: ModuleNode) -> Optional[str]:
    """Absolute dotted origin of a bare name at module scope."""
    if name in mod.imports:
        return mod.imports[name]
    if name in mod.bindings or name in mod.functions or name in mod.classes:
        return f"{mod.name}.{name}"
    return None


def _annotation_class(ann: Optional[ast.AST], mod: ModuleNode, graph: ProjectGraph) -> Optional[str]:
    """Project class qualname an annotation denotes, unwrapping
    ``Optional[X]`` / ``X | None`` / quoted forward references."""
    if ann is None:
        return None
    if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
        text = ann.value
        for piece in text.replace("Optional[", "").replace("]", "").split("|"):
            resolved = graph.resolve_symbol(_lookup_name(piece.strip(), mod))
            if resolved in graph.classes:
                return resolved
        return None
    if isinstance(ann, ast.Subscript):
        # Optional[X] → X; other generics: try the subscripted value too.
        inner = _annotation_class(ann.slice, mod, graph)
        return inner
    if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
        return _annotation_class(ann.left, mod, graph) or _annotation_class(
            ann.right, mod, graph
        )
    resolved = graph.resolve_symbol(_resolve_dotted(ann, mod))
    return resolved if resolved in graph.classes else None


# ---------------------------------------------------------------- assembly
def _collect_attr_types(graph: ProjectGraph, mod: ModuleNode) -> None:
    """Infer ``self.X`` attribute classes from __init__-style assignments."""
    for cls in mod.classes.values():
        for method_qual in cls.methods.values():
            fn = graph.functions.get(method_qual)
            if fn is None:
                continue
            ann_types: dict[str, str] = {}
            args = getattr(fn.node, "args", None)
            if args is not None:
                for arg in args.posonlyargs + args.args + args.kwonlyargs:
                    resolved = _annotation_class(arg.annotation, mod, graph)
                    if resolved is not None:
                        ann_types[arg.arg] = resolved
            for node in _FunctionScan._own_nodes(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Attribute)
                    and isinstance(node.targets[0].value, ast.Name)
                    and node.targets[0].value.id == "self"
                ):
                    attr = node.targets[0].attr
                    value = node.value
                    if isinstance(value, ast.Call):
                        resolved = graph.resolve_symbol(
                            _dotted_or_local(value.func, mod)
                        )
                        if resolved in graph.classes:
                            cls.attr_types.setdefault(attr, resolved)
                    elif isinstance(value, ast.Name) and value.id in ann_types:
                        cls.attr_types.setdefault(attr, ann_types[value.id])


def _declared_entries(graph: ProjectGraph) -> None:
    """Seed entry points from ``_WORKER_ENTRY_POINTS`` declarations."""
    for mod in sorted(graph.modules.values(), key=lambda m: m.name):
        for name in mod.worker_entries:
            if "." in name:
                cls_name, _, method = name.partition(".")
                cls = mod.classes.get(cls_name)
                qualname = cls.methods.get(method) if cls else None
            else:
                qualname = mod.functions.get(name)
            if qualname is None:
                continue
            fn = graph.functions[qualname]
            graph.entry_points.append(
                EntryPoint(
                    qualname=qualname,
                    reason=f"declared in {mod.name}.{WORKER_ENTRY_DECL}",
                    path=mod.path,
                    lineno=fn.lineno,
                )
            )


def build_graph(paths: Iterable[Path]) -> ProjectGraph:
    """Parse every ``.py`` under *paths* and build the project graph."""
    graph = ProjectGraph()
    files = list(iter_python_files(Path(p) for p in paths))
    for path in files:
        try:
            text = path.read_text()
            tree = ast.parse(text)
        except (OSError, SyntaxError):
            continue
        module, _root = _module_name(path)
        if module is None:
            module = path.stem
        lines = text.splitlines()
        mod = ModuleNode(
            name=module, path=str(path), tree=tree, lines=lines, noqa=_noqa_map(lines)
        )
        mod.imports, mod.star_imports = _absolutize_imports(
            tree, module, is_package=path.name == "__init__.py"
        )
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                mod.bindings.add(stmt.name)
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for name_node in ast.walk(target):
                        if isinstance(name_node, ast.Name):
                            mod.bindings.add(name_node.id)
            elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
                if isinstance(stmt.target, ast.Name):
                    mod.bindings.add(stmt.target.id)
            elif isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    mod.bindings.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(stmt, ast.ImportFrom):
                for alias in stmt.names:
                    if alias.name != "*":
                        mod.bindings.add(alias.asname or alias.name)
        _module_level_decls(mod)
        graph.modules[module] = mod
    # Pass 1: symbols.
    for mod in sorted(graph.modules.values(), key=lambda m: m.name):
        _Collector(graph, mod).visit(mod.tree)
    # Instance-attribute types need the full class table first.
    for mod in sorted(graph.modules.values(), key=lambda m: m.name):
        _collect_attr_types(graph, mod)
    # Dispatch spec registry.
    callables: set = set()
    methods: dict[str, set] = {}
    for mod in graph.modules.values():
        for spec in mod.dispatch_decls:
            if "." in spec:
                cls_name, _, method = spec.partition(".")
                cls = mod.classes.get(cls_name)
                if cls is not None:
                    methods.setdefault(method, set()).add(cls.qualname)
            else:
                if spec in mod.classes:
                    callables.add(mod.classes[spec].qualname)
                elif spec in mod.functions:
                    callables.add(mod.functions[spec])
    graph._dispatch_specs = {"callables": callables, "methods": methods}
    # Pass 2: edges, references, dispatch-site seeds.
    for mod in sorted(graph.modules.values(), key=lambda m: m.name):
        _FunctionScan(graph, mod).scan_module()
    _declared_entries(graph)
    return graph
