"""Whole-program rules: fixpoint taint propagation over the call graph.

The per-file rules catch a ``time.time()`` written directly inside a
task body; they cannot catch the same call two helpers deep inside a
function shipped to a process worker.  These rules can, because they
run over :class:`repro.analysis.graph.ProjectGraph` — every module of
the linted tree parsed once, with a conservative call graph and the
worker entry points declared at the dispatch sites themselves.

====== ===================== ============================================
code   name                  contract
====== ===================== ============================================
WRK001 worker-purity         code reachable from worker entry points is
                             transitively free of wall-clock reads,
                             unseeded RNG, and mutable module-global
                             writes
CTR002 counter-key-flow      counter-key literals passed through helper
                             parameters into ``counters.add`` sinks must
                             be registered in COUNTER_SCHEMA
DET004 set-identity-flow     set-iteration order and ``id()`` values must
                             not cross function boundaries into ordered
                             outputs, pair arrays, or fingerprints
API002 dead-export           ``__all__`` / ``_EXPORTS`` symbols nobody
                             outside the module references are dead API
====== ===================== ============================================

Every WRK001/CTR002/DET004 finding carries a ``trace`` — the witness
chain from the entry point (or key literal, or set producer) to the
primitive — rendered by ``repro-lint --why CODE path:line``.  Findings
honour the same ``# repro: noqa[RULE]`` line suppressions as the
per-file phase, keyed on the line the finding is reported at.

All fixpoints are monotone over finite lattices (a function either has
a summary fact or it doesn't; facts are only ever added), so every loop
terminates even on mutually recursive call cycles — the property
``tests/analysis/test_graph.py`` pins with an explicit two-function
cycle.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .clock import CLOCK_WHITELIST, _CLOCK_CALLS
from .core import RULES, Finding, LintSession, Rule, register
from .determinism import unseeded_rng_message
from .graph import (
    FunctionNode,
    ModuleNode,
    ProjectGraph,
    _FunctionScan,
    _annotation_class,
    _resolve_dotted,
    build_graph,
)

# The rule classes are reached through the RULES registry; tests import
# ProjectContext / WORKER_STATE_WHITELIST directly.  The one supported
# entry point is lint_project.
__all__ = ["lint_project"]

#: Modules allowed to write module-level state from worker-reachable
#: code: the planes whose *job* is per-process state.  ``repro.exec.task``
#: owns the per-task counter swap, ``repro.trace.core`` the session
#: state, and ``repro.metrics`` the thread-local counter redirect stack.
#: Everything else reached from a worker must treat module globals as
#: read-only — a write would survive into the next task the same thread
#: or child runs and break bit-identical replay.
WORKER_STATE_WHITELIST = frozenset(
    {
        "repro.exec.task",
        "repro.trace.core",
        "repro.metrics",
    }
)

#: WRK001 taint kinds -> modules exempt for that kind only.
_KIND_WHITELISTS = {
    "wall-clock read": CLOCK_WHITELIST,
    "unseeded/global RNG": frozenset(),
    "module-global write": WORKER_STATE_WHITELIST,
}

#: methods that mutate their receiver in place
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "discard",
        "remove",
        "pop",
        "popitem",
        "clear",
        "update",
        "setdefault",
        "appendleft",
        "extendleft",
    }
)

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: set-returning methods (mirrors core._SET_METHODS)
_SET_METHODS = ("union", "intersection", "difference", "symmetric_difference")

#: builtins whose result cannot observe iteration order (DET003 twin)
_ORDER_FREE = frozenset(
    {"sorted", "sum", "min", "max", "any", "all", "len", "set", "frozenset"}
)


@dataclass(frozen=True)
class Primitive:
    """One impure primitive inside a function body (a WRK001 taint seed)."""

    kind: str  # key into _KIND_WHITELISTS
    lineno: int
    col: int
    detail: str  # short human phrase for the message / trace


# --------------------------------------------------------------- AST helpers
def _own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Walk *root* without descending into nested function bodies."""
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _FUNC_NODES):
            stack.extend(ast.iter_child_nodes(node))


def _root_name(node: ast.AST) -> Optional[str]:
    """The base ``Name`` of an attribute/subscript chain (None otherwise)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _imported_dotted(node: ast.AST, mod: ModuleNode) -> Optional[str]:
    """Dotted origin of a chain *rooted at an import* (None otherwise).

    The root-must-be-imported restriction mirrors
    :meth:`FileContext.resolve_imported`: a local variable that merely
    shares a module's name cannot look like ``time.time``.
    """
    base = node
    while isinstance(base, ast.Attribute):
        base = base.value
    if isinstance(base, ast.Name) and base.id in mod.imports:
        return _resolve_dotted(node, mod)
    return None


def _fn_args(fn: FunctionNode) -> list:
    args = getattr(fn.node, "args", None)
    if args is None:
        return []
    return args.posonlyargs + args.args + args.kwonlyargs


def _local_names(fn: FunctionNode) -> set:
    """Names bound locally in *fn* (params, stores, imports, handlers)."""
    names = set(fn.params)
    declared_global: set = set()
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            names.add(node.id)
        elif isinstance(node, ast.Nonlocal):
            names.update(node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    names.add(alias.asname or alias.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names - declared_global


def _bind_args(call: ast.Call, callee: FunctionNode) -> Iterable[tuple]:
    """Yield ``(parameter_name, argument_node)`` pairs for a call site.

    Positional binding assumes the conventional shapes: an attribute
    call on an instance binds the first parameter (``self``) to the
    receiver; a bare call does not.  Keywords bind by name.
    """
    offset = (
        1
        if callee.cls is not None
        and callee.params[:1]
        and callee.params[0] in ("self", "cls")
        and isinstance(call.func, ast.Attribute)
        else 0
    )
    for i, arg in enumerate(call.args):
        idx = i + offset
        if idx < len(callee.params):
            yield callee.params[idx], arg
    for kw in call.keywords:
        if kw.arg is not None:
            yield kw.arg, kw.value


def _location(graph: ProjectGraph, qualname: str) -> str:
    fn = graph.functions.get(qualname)
    if fn is None:
        return "?"
    mod = graph.modules.get(fn.module)
    return f"{mod.path}:{fn.lineno}" if mod else f"?:{fn.lineno}"


# ----------------------------------------------------------- shared context
class _Resolver:
    """Call-site resolution reusing the graph builder's machinery."""

    def __init__(self, graph: ProjectGraph):
        self.graph = graph
        self._scans: dict = {}
        self._types: dict = {}

    def callee(self, func_expr: ast.AST, fn: FunctionNode) -> Optional[str]:
        """Qualname of the *function* a callee expression denotes."""
        mod = self.graph.modules.get(fn.module)
        if mod is None:
            return None
        scan = self._scans.get(fn.module)
        if scan is None:
            scan = self._scans[fn.module] = _FunctionScan(self.graph, mod)
        local_types = self._types.get(fn.qualname)
        if local_types is None:
            local_types = self._types[fn.qualname] = scan._local_types(fn)
        resolved = scan._resolve_callable(func_expr, fn, local_types)
        return resolved if resolved in self.graph.functions else None


class ProjectContext:
    """Everything whole-program rule hooks need: graph, schema, report()."""

    def __init__(self, graph: ProjectGraph, session: LintSession):
        self.graph = graph
        self.session = session
        self.findings: list = []
        self.resolver = _Resolver(graph)
        self._primitives: dict = {}
        self._parent_stamped: set = set()

    # -- findings ----------------------------------------------------------
    def report(
        self,
        rule: Rule,
        mod: ModuleNode,
        lineno: int,
        col: int,
        message: str,
        trace: Sequence[str] = (),
    ) -> None:
        """Record a finding unless a ``# repro: noqa`` suppresses it."""
        codes = mod.noqa.get(lineno)
        if codes is not None and (not codes or rule.code in codes):
            return
        snippet = (
            mod.lines[lineno - 1].strip() if 0 < lineno <= len(mod.lines) else ""
        )
        self.findings.append(
            Finding(rule.code, mod.path, lineno, col, message, snippet, tuple(trace))
        )

    # -- shared analyses ---------------------------------------------------
    def schema(self) -> frozenset:
        """CTR002's registered-key set (lazy, same source as CTR001)."""
        if self.session.counter_schema is None:
            from ..metrics import COUNTER_SCHEMA

            self.session.counter_schema = frozenset(COUNTER_SCHEMA)
        return self.session.counter_schema

    def parent_of(self, mod: ModuleNode, node: ast.AST) -> Optional[ast.AST]:
        """AST parent within *mod*'s tree (stamped lazily per module)."""
        if mod.name not in self._parent_stamped:
            for parent in ast.walk(mod.tree):
                for child in ast.iter_child_nodes(parent):
                    child._ip_parent = parent  # type: ignore[attr-defined]
            self._parent_stamped.add(mod.name)
        return getattr(node, "_ip_parent", None)

    def primitives(self, fn: FunctionNode) -> list:
        """The impure primitives inside *fn*'s body (cached per function)."""
        cached = self._primitives.get(fn.qualname)
        if cached is None:
            mod = self.graph.modules.get(fn.module)
            cached = self._primitives[fn.qualname] = (
                _collect_primitives(fn, mod, self.graph)
                if mod is not None
                else []
            )
        return cached


def _collect_primitives(
    fn: FunctionNode, mod: ModuleNode, graph: ProjectGraph
) -> list:
    """Scan one function body for WRK001 taint seeds."""
    out: list[Primitive] = []
    locals_ = _local_names(fn)

    def names_module(root: str) -> bool:
        # ``np.append(...)`` is a call into numpy, not a mutation of a
        # module-level object — skip mutating-method checks when the
        # receiver's root is an import alias denoting a module.
        origin = mod.imports.get(root)
        return origin is not None and (
            "." not in origin or origin in graph.modules
        )

    declared_global: set = set()
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
    for node in _own_nodes(fn.node):
        if isinstance(node, ast.Call):
            dotted = _imported_dotted(node.func, mod)
            if dotted is not None:
                if dotted in _CLOCK_CALLS:
                    out.append(
                        Primitive(
                            "wall-clock read",
                            node.lineno,
                            node.col_offset,
                            f"{dotted}()",
                        )
                    )
                elif unseeded_rng_message(
                    dotted, has_args=bool(node.args or node.keywords)
                ):
                    out.append(
                        Primitive(
                            "unseeded/global RNG",
                            node.lineno,
                            node.col_offset,
                            f"{dotted}()",
                        )
                    )
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _MUTATING_METHODS
            ):
                root = _root_name(node.func.value)
                if (
                    root is not None
                    and root not in ("self", "cls")
                    and root not in locals_
                    and root in mod.bindings
                    and not names_module(root)
                ):
                    out.append(
                        Primitive(
                            "module-global write",
                            node.lineno,
                            node.col_offset,
                            f"{root}.{node.func.attr}(...) mutates "
                            f"module-level state",
                        )
                    )
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name) and target.id in declared_global:
                    out.append(
                        Primitive(
                            "module-global write",
                            node.lineno,
                            node.col_offset,
                            f"assignment to global {target.id!r}",
                        )
                    )
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    root = _root_name(target)
                    if (
                        root is not None
                        and root not in ("self", "cls")
                        and root not in locals_
                        and root in mod.bindings
                    ):
                        out.append(
                            Primitive(
                                "module-global write",
                                node.lineno,
                                node.col_offset,
                                f"write through module-level name {root!r}",
                            )
                        )
    return sorted(out, key=lambda p: (p.lineno, p.col, p.kind, p.detail))


# ------------------------------------------------------------------- WRK001
@register
class WorkerPurity(Rule):
    """WRK001: worker-reachable code is transitively pure."""

    code = "WRK001"
    name = "worker-purity"
    whole_program = True
    description = (
        "function reachable from a worker entry point performs a "
        "wall-clock read, unseeded RNG draw, or module-global write "
        "(transitively; see --why for the call chain)"
    )

    def check_project(self, graph: ProjectGraph, pctx: ProjectContext) -> None:
        """Flag every impure primitive reachable from a worker entry."""
        parents = graph.reachable_from_entries()
        seen: set = set()
        for qualname in sorted(parents):
            fn = graph.functions.get(qualname)
            if fn is None:
                continue
            mod = graph.modules.get(fn.module)
            if mod is None:
                continue
            for prim in pctx.primitives(fn):
                if fn.module in _KIND_WHITELISTS.get(prim.kind, frozenset()):
                    continue
                site = (mod.path, prim.lineno, prim.kind, prim.detail)
                if site in seen:
                    continue
                seen.add(site)
                entry = parents[qualname][0]
                trace = self._trace(graph, parents, qualname, prim)
                pctx.report(
                    self,
                    mod,
                    prim.lineno,
                    prim.col,
                    f"{prim.detail}: {prim.kind} in {qualname}, which is "
                    f"reachable from worker entry point {entry.qualname} "
                    f"({entry.reason}); worker-shipped code must be "
                    "transitively deterministic — run "
                    f"`repro-lint --why WRK001 {mod.path}:{prim.lineno}` "
                    "for the call chain",
                    trace=trace,
                )

    @staticmethod
    def _trace(
        graph: ProjectGraph, parents: dict, qualname: str, prim: Primitive
    ) -> tuple:
        """Witness chain: entry point -> ... -> offending primitive."""
        entry = parents[qualname][0]
        lines = []
        for step_qual, edge in graph.chain(parents, qualname):
            loc = _location(graph, step_qual)
            if edge is None:
                lines.append(
                    f"{step_qual} ({loc}) <- {entry.reason} at "
                    f"{entry.path}:{entry.lineno}"
                )
            else:
                lines.append(
                    f"-> {step_qual} ({loc}) via {edge.kind} at line "
                    f"{edge.lineno}"
                )
        lines.append(f"!! {prim.detail} ({prim.kind}) at line {prim.lineno}")
        return tuple(lines)


# ------------------------------------------------------------------- CTR002
def _is_counterish(node: ast.AST, fn: FunctionNode, mod, graph) -> bool:
    """Structural ledger test for graph-phase ASTs (no FileContext)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "counters"
    if isinstance(node, ast.Name):
        if node.id == "counters":
            return True
        if node.id in ("self", "cls"):
            return bool(fn.cls) and fn.cls.rsplit(".", 1)[-1] == "Counters"
        for arg in _fn_args(fn):
            if arg.arg == node.id:
                resolved = _annotation_class(arg.annotation, mod, graph)
                return resolved is not None and resolved.endswith(".Counters")
    return False


@register
class CounterKeyFlow(Rule):
    """CTR002: helper-parameter counter keys resolve to COUNTER_SCHEMA."""

    code = "CTR002"
    name = "counter-key-flow"
    whole_program = True
    description = (
        "string literal flows through helper-function parameters into a "
        "counters.add sink but is not registered in COUNTER_SCHEMA"
    )

    def check_project(self, graph: ProjectGraph, pctx: ProjectContext) -> None:
        """Fixpoint the key-parameter set, then validate literal call sites."""
        key_params = self._key_params(graph, pctx)
        schema = pctx.schema()
        for qualname, fn in sorted(graph.functions.items()):
            mod = graph.modules.get(fn.module)
            if mod is None:
                continue
            for node in _own_nodes(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                callee = pctx.resolver.callee(node.func, fn)
                if callee not in key_params:
                    continue
                callee_fn = graph.functions[callee]
                for param, arg in _bind_args(node, callee_fn):
                    if param not in key_params[callee]:
                        continue
                    if not (
                        isinstance(arg, ast.Constant)
                        and isinstance(arg.value, str)
                    ):
                        continue
                    if arg.value in schema:
                        continue
                    trace = (
                        f"literal {arg.value!r} passed at "
                        f"{mod.path}:{node.lineno}",
                    ) + key_params[callee][param]
                    pctx.report(
                        self,
                        mod,
                        node.lineno,
                        node.col_offset,
                        f"counter key {arg.value!r} flows through "
                        f"{callee}(param {param!r}) into counters.add but "
                        "is not registered in repro.metrics.COUNTER_SCHEMA "
                        "— register it or fix the typo (unregistered keys "
                        "silently split the ledger)",
                        trace=trace,
                    )

    @staticmethod
    def _key_params(graph: ProjectGraph, pctx: ProjectContext) -> dict:
        """qualname -> {param -> provenance chain to a counters.add sink}."""
        key_params: dict = {}
        for qualname, fn in sorted(graph.functions.items()):
            mod = graph.modules.get(fn.module)
            if mod is None:
                continue
            for node in _own_nodes(fn.node):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "add"
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in fn.params
                    and _is_counterish(node.func.value, fn, mod, graph)
                ):
                    key_params.setdefault(qualname, {}).setdefault(
                        node.args[0].id,
                        (
                            f"{qualname}({node.args[0].id}) -> counters.add "
                            f"at {mod.path}:{node.lineno}",
                        ),
                    )
        # Propagate caller-param -> callee-key-param edges to fixpoint.
        # Monotone (entries only ever added), so it terminates on cycles.
        changed = True
        while changed:
            changed = False
            for qualname, fn in sorted(graph.functions.items()):
                mod = graph.modules.get(fn.module)
                if mod is None:
                    continue
                for node in _own_nodes(fn.node):
                    if not isinstance(node, ast.Call):
                        continue
                    callee = pctx.resolver.callee(node.func, fn)
                    if callee not in key_params:
                        continue
                    callee_fn = graph.functions[callee]
                    for param, arg in _bind_args(node, callee_fn):
                        if (
                            param in key_params[callee]
                            and isinstance(arg, ast.Name)
                            and arg.id in fn.params
                        ):
                            mine = key_params.setdefault(qualname, {})
                            if arg.id not in mine:
                                mine[arg.id] = (
                                    f"{qualname}({arg.id}) -> "
                                    f"{callee}({param}) at "
                                    f"{mod.path}:{node.lineno}",
                                ) + key_params[callee][param]
                                changed = True
        return key_params


# ------------------------------------------------------------------- DET004
@register
class SetIdentityFlow(Rule):
    """DET004: set order / id() values must not cross function boundaries."""

    code = "DET004"
    name = "set-identity-flow"
    whole_program = True
    description = (
        "set-iteration order or an id() value crosses a function boundary "
        "into ordered output (pair arrays, merges, fingerprints)"
    )

    _KEYED_METHODS = ("setdefault", "get", "pop", "add", "discard", "remove")

    def check_project(self, graph: ProjectGraph, pctx: ProjectContext) -> None:
        """Summarise producers/consumers, then check every call boundary."""
        returns_set, returns_id = self._return_summaries(graph, pctx)
        ordered_params = self._ordered_params(graph, pctx)
        for qualname, fn in sorted(graph.functions.items()):
            mod = graph.modules.get(fn.module)
            if mod is None:
                continue
            self._check_ordered_uses(graph, pctx, fn, mod, returns_set)
            self._check_set_args(
                graph, pctx, fn, mod, returns_set, ordered_params
            )
            self._check_id_keys(graph, pctx, fn, mod, returns_id)

    # -- summaries ---------------------------------------------------------
    def _return_summaries(
        self, graph: ProjectGraph, pctx: ProjectContext
    ) -> tuple:
        """Fixpoint: which functions return sets / id()-derived values."""
        returns_set: dict = {}
        returns_id: dict = {}
        changed = True
        while changed:
            changed = False
            for qualname, fn in sorted(graph.functions.items()):
                if qualname in returns_set and qualname in returns_id:
                    continue
                if graph.modules.get(fn.module) is None:
                    continue
                local_sets = self._local_sets(pctx, fn, returns_set)
                for value, lineno in self._return_values(fn):
                    if qualname not in returns_set and self._setish(
                        value, pctx, fn, local_sets, returns_set
                    ):
                        returns_set[qualname] = lineno
                        changed = True
                    if qualname not in returns_id and self._idish(
                        value, pctx, fn, returns_id
                    ):
                        returns_id[qualname] = lineno
                        changed = True
        return returns_set, returns_id

    @staticmethod
    def _return_values(fn: FunctionNode) -> Iterable[tuple]:
        if isinstance(fn.node, ast.Lambda):
            yield fn.node.body, fn.node.lineno
            return
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                yield node.value, node.lineno

    def _local_sets(
        self, pctx: ProjectContext, fn: FunctionNode, returns_set: dict
    ) -> set:
        """Local names assigned from set expressions (flow-insensitive)."""
        local: set = set()
        changed = True
        while changed:
            changed = False
            for node in _own_nodes(fn.node):
                if (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id not in local
                    and self._setish(node.value, pctx, fn, local, returns_set)
                ):
                    local.add(node.targets[0].id)
                    changed = True
        return local

    def _setish(
        self,
        node: ast.AST,
        pctx: ProjectContext,
        fn: FunctionNode,
        local_sets: set,
        returns_set: dict,
    ) -> bool:
        """Graph-phase twin of :func:`repro.analysis.core.is_setish`, plus
        calls to functions whose summary says they return a set."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set",
                "frozenset",
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
            ):
                return self._setish(
                    node.func.value, pctx, fn, local_sets, returns_set
                )
            return pctx.resolver.callee(node.func, fn) in returns_set
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self._setish(
                node.left, pctx, fn, local_sets, returns_set
            ) or self._setish(node.right, pctx, fn, local_sets, returns_set)
        if isinstance(node, ast.Name):
            return node.id in local_sets
        return False

    def _idish(
        self,
        node: ast.AST,
        pctx: ProjectContext,
        fn: FunctionNode,
        returns_id: dict,
    ) -> bool:
        """Is this expression an ``id()`` value (directly or via a call)?"""
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id == "id"
                and len(node.args) == 1
            ):
                return True
            return pctx.resolver.callee(node.func, fn) in returns_id
        return False

    def _ordered_params(
        self, graph: ProjectGraph, pctx: ProjectContext
    ) -> dict:
        """qualname -> {param -> line where its order reaches output}."""
        out: dict = {}
        for qualname, fn in sorted(graph.functions.items()):
            mod = graph.modules.get(fn.module)
            if mod is None:
                continue
            params = set(fn.params) - {"self", "cls"}
            found: dict = {}
            for node in _own_nodes(fn.node):
                if (
                    isinstance(node, ast.For)
                    and isinstance(node.iter, ast.Name)
                    and node.iter.id in params
                ):
                    found.setdefault(node.iter.id, node.iter.lineno)
                elif isinstance(
                    node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
                ):
                    if self._order_free_parent(pctx, mod, node):
                        continue
                    for gen in node.generators:
                        if (
                            isinstance(gen.iter, ast.Name)
                            and gen.iter.id in params
                        ):
                            found.setdefault(gen.iter.id, gen.iter.lineno)
                elif isinstance(node, ast.Call):
                    arg = node.args[0] if node.args else None
                    if not (isinstance(arg, ast.Name) and arg.id in params):
                        continue
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id in ("list", "tuple", "enumerate")
                    ) or (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join"
                    ):
                        found.setdefault(arg.id, node.lineno)
            if found:
                out[qualname] = found
        return out

    @staticmethod
    def _order_free_parent(pctx: ProjectContext, mod, node: ast.AST) -> bool:
        parent = pctx.parent_of(mod, node)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_FREE
            and node in parent.args
        )

    # -- checks ------------------------------------------------------------
    def _set_call(
        self,
        node: ast.AST,
        pctx: ProjectContext,
        fn: FunctionNode,
        returns_set: dict,
    ) -> Optional[str]:
        if isinstance(node, ast.Call):
            callee = pctx.resolver.callee(node.func, fn)
            if callee in returns_set:
                return callee
        return None

    def _report_set_use(
        self,
        pctx: ProjectContext,
        graph: ProjectGraph,
        fn,
        mod,
        node: ast.AST,
        callee: str,
        returns_set: dict,
        where: str,
    ) -> None:
        pctx.report(
            self,
            mod,
            node.lineno,
            node.col_offset,
            f"result of {callee}() is a set (returned at "
            f"{_location(graph, callee).rsplit(':', 1)[0]}:"
            f"{returns_set[callee]}) and is iterated {where}: set order "
            "crosses the function boundary into ordered output — wrap in "
            "sorted(...) or return a sorted sequence from the callee",
            trace=(
                f"{callee} returns a set at "
                f"{_location(graph, callee).rsplit(':', 1)[0]}:"
                f"{returns_set[callee]}",
                f"result iterated {where} in {fn.qualname} at "
                f"{mod.path}:{node.lineno}",
            ),
        )

    def _check_ordered_uses(
        self, graph, pctx, fn, mod, returns_set: dict
    ) -> None:
        """Set-returning call results iterated in ordered contexts here."""
        for node in _own_nodes(fn.node):
            if isinstance(node, ast.For):
                callee = self._set_call(node.iter, pctx, fn, returns_set)
                if callee is not None:
                    self._report_set_use(
                        pctx, graph, fn, mod, node.iter, callee, returns_set,
                        "in a for loop",
                    )
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                if self._order_free_parent(pctx, mod, node):
                    continue
                for gen in node.generators:
                    callee = self._set_call(gen.iter, pctx, fn, returns_set)
                    if callee is not None:
                        self._report_set_use(
                            pctx, graph, fn, mod, gen.iter, callee,
                            returns_set, "in a comprehension",
                        )
            elif isinstance(node, ast.Call):
                arg = node.args[0] if node.args else None
                callee = (
                    self._set_call(arg, pctx, fn, returns_set)
                    if arg is not None
                    else None
                )
                if callee is None:
                    continue
                if (
                    isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "enumerate")
                ) or (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "join"
                ):
                    self._report_set_use(
                        pctx, graph, fn, mod, node, callee, returns_set,
                        f"via {getattr(node.func, 'id', 'str.join')}()",
                    )

    def _check_set_args(
        self, graph, pctx, fn, mod, returns_set: dict, ordered_params: dict
    ) -> None:
        """Set expressions passed to params the callee iterates ordered."""
        local_sets = self._local_sets(pctx, fn, returns_set)
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = pctx.resolver.callee(node.func, fn)
            if callee not in ordered_params:
                continue
            callee_fn = graph.functions[callee]
            callee_mod = graph.modules.get(callee_fn.module)
            for param, arg in _bind_args(node, callee_fn):
                if param not in ordered_params[callee]:
                    continue
                if not self._setish(arg, pctx, fn, local_sets, returns_set):
                    continue
                iter_line = ordered_params[callee][param]
                pctx.report(
                    self,
                    mod,
                    node.lineno,
                    node.col_offset,
                    f"set passed to {callee}(param {param!r}), which "
                    f"iterates it into ordered output (line {iter_line}): "
                    "set order crosses the function boundary — pass "
                    "sorted(...) or sort inside the callee",
                    trace=(
                        f"set argument at {mod.path}:{node.lineno} in "
                        f"{fn.qualname}",
                        f"{callee} iterates param {param!r} in an ordered "
                        f"context at "
                        f"{callee_mod.path if callee_mod else '?'}:"
                        f"{iter_line}",
                    ),
                )

    def _check_id_keys(self, graph, pctx, fn, mod, returns_id: dict) -> None:
        """id()-derived call results used as keys / membership tokens."""

        def flag(node: ast.AST, callee: str, what: str) -> None:
            pctx.report(
                self,
                mod,
                node.lineno,
                node.col_offset,
                f"result of {callee}() is an id() value (returned at line "
                f"{returns_id[callee]}) used as a {what}: addresses are "
                "recycled after GC and vary across runs — key on a stable "
                "identity instead",
                trace=(
                    f"{callee} returns id(...) at "
                    f"{_location(graph, callee).rsplit(':', 1)[0]}:"
                    f"{returns_id[callee]}",
                    f"used as {what} in {fn.qualname} at "
                    f"{mod.path}:{node.lineno}",
                ),
            )

        def id_call(expr: ast.AST) -> Optional[str]:
            if isinstance(expr, ast.Call):
                callee = pctx.resolver.callee(expr.func, fn)
                if callee in returns_id:
                    return callee
            return None

        for node in _own_nodes(fn.node):
            if isinstance(node, ast.Subscript):
                keys = (
                    node.slice.elts
                    if isinstance(node.slice, ast.Tuple)
                    else [node.slice]
                )
                for key in keys:
                    callee = id_call(key)
                    if callee is not None:
                        flag(node, callee, "subscript key")
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    callee = id_call(key) if key is not None else None
                    if callee is not None:
                        flag(node, callee, "dict-literal key")
            elif isinstance(node, ast.Compare):
                callee = id_call(node.left)
                if callee is not None and any(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops
                ):
                    flag(node, callee, "membership probe")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in self._KEYED_METHODS
                and node.args
            ):
                callee = id_call(node.args[0])
                if callee is not None:
                    flag(node, callee, f"{node.func.attr}() key")


# ------------------------------------------------------------------- API002
@register
class DeadExport(Rule):
    """API002: exported symbols nobody outside the module references."""

    code = "API002"
    name = "dead-export"
    whole_program = True
    description = (
        "__all__ / _EXPORTS symbol with no inbound reference from any "
        "other module in the linted tree — dead API surface"
    )

    def check_project(self, graph: ProjectGraph, pctx: ProjectContext) -> None:
        """Cross-reference every export against all other modules' uses."""
        used = self._used_symbols(graph)
        for mod in sorted(graph.modules.values(), key=lambda m: m.name):
            # __init__ modules ARE the declared public surface of their
            # package: their exports exist for out-of-tree consumers.
            if Path(mod.path).name == "__init__.py":
                continue
            star_used = any(
                mod.name in other.star_imports
                for other in graph.modules.values()
                if other.name != mod.name
            )
            exports = list(mod.all_entries) + [
                (name, None) for name in sorted(mod.exports)
            ]
            for name, node in exports:
                if star_used:
                    continue
                dotted = f"{mod.name}.{name}"
                canonical = graph.resolve_symbol(dotted)
                inbound = any(
                    dotted in symbols or (canonical and canonical in symbols)
                    for other, symbols in used.items()
                    if other != mod.name
                )
                if inbound:
                    continue
                lineno = getattr(node, "lineno", 1)
                col = getattr(node, "col_offset", 0)
                pctx.report(
                    self,
                    mod,
                    lineno,
                    col,
                    f"{name!r} is exported by {mod.name} but nothing "
                    "outside that module references it — dead API surface "
                    "(drop it from __all__/_EXPORTS, or re-export it from "
                    "the package __init__ if it is public)",
                )

    @staticmethod
    def _used_symbols(graph: ProjectGraph) -> dict:
        """module name -> every dotted symbol it references or imports."""
        used: dict = {}
        for mod in graph.modules.values():
            symbols = set(graph.references.get(mod.name, ()))
            for value in mod.imports.values():
                symbols.add(value)
                resolved = graph.resolve_symbol(value)
                if resolved is not None:
                    symbols.add(resolved)
            for target_mod, attr in mod.exports.values():
                symbols.add(f"{target_mod}.{attr}")
                resolved = graph.resolve_symbol(f"{target_mod}.{attr}")
                if resolved is not None:
                    symbols.add(resolved)
            used[mod.name] = symbols
        return used


# -------------------------------------------------------------- entry point
def lint_project(
    paths: Iterable[Path], *, session: Optional[LintSession] = None
) -> list:
    """Run the whole-program phase over *paths* (sorted findings).

    Builds the project graph once, leaves it on ``session.graph``, and
    runs every enabled whole-program rule.  Module-scope statements are
    analysed by the graph builder (references, dispatch seeds) but the
    taint rules only examine function bodies — module import time runs
    in the parent process, where the per-file rules already apply.
    """
    session = session or LintSession()
    codes = session.project_codes()
    if not codes:
        return []
    graph = build_graph(Path(p) for p in paths)
    session.graph = graph
    pctx = ProjectContext(graph, session)
    for code in codes:
        RULES[code]().check_project(graph, pctx)
    return sorted(pctx.findings, key=Finding.sort_key)
