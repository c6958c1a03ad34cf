"""Project-wide call graph over a scanned module set.

The per-module rules in :mod:`repro.analysis.rules` see one file at a
time, so a hazard laundered through a helper function -- ``sim/engine``
calling ``util.helpers.jitter`` which calls ``time.time()`` -- lands in
the guarded module unseen.  This module builds the cross-module call
graph the taint pass (:mod:`repro.analysis.dataflow`) propagates over.

Resolution reuses the import-aware name tables the rules already
maintain (:meth:`~repro.analysis.rules.ModuleUnderAnalysis.resolve`)
and adds three project-level conventions:

* a bare call ``helper()`` resolves to a function defined in the same
  module;
* ``self.method()`` resolves to a method of the lexically enclosing
  class (no inheritance walk -- the graph is deliberately first-order);
* an imported dotted name is matched against the scanned tree by
  stripping the package prefix (``repro.core.ppw.select_fopt`` and a
  fixture-root ``core.ppw.select_fopt`` both land on the same node).

Calls that resolve to nothing inside the scanned tree are kept as
*external* edges (``time.time``, ``numpy.random.rand``, ...) -- those
are exactly the edges the taint pass treats as hazard sources.  Calls
through variables, containers, or higher-order plumbing are dropped:
the goal is the overwhelmingly common spelling of a call chain, with
code review covering exotic dispatch (the same stance the per-module
name resolution takes).

Everything is deterministic: functions, edges, and traversals iterate
in sorted order so finding messages -- which embed call paths -- are
stable across runs and hosts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.analysis.rules import ModuleUnderAnalysis

#: Transitive-closure depth bound for reachability queries.  Deep
#: enough for any real chain in this tree (the longest today is 4),
#: small enough that a pathological cycle cannot blow the scan budget.
DEFAULT_MAX_DEPTH = 8


@dataclass(frozen=True)
class CallSite:
    """One resolved call edge leaving a function.

    Attributes:
        caller: Qualified name of the calling function
            (``"serve.fleet.FleetDecisionService.submit"``).
        callee: Qualified name of the called function when it resolves
            inside the scanned tree, else ``None``.
        external: Dotted external name (``"time.time"``) when the call
            resolves through the import tables but not to a scanned
            function, else ``None``.
        line: 1-based source line of the call in the caller's module.
        col: 0-based column of the call.
    """

    caller: str
    callee: str | None
    external: str | None
    line: int
    col: int


@dataclass
class FunctionNode:
    """One function or method defined in the scanned tree.

    Attributes:
        qualname: Dotted name relative to the scan root
            (``module.func`` or ``module.Class.method``).
        module_path: POSIX path of the defining module.
        line: 1-based line of the ``def``.
        node: The function's AST.
        calls: Outgoing call sites, in source order.
    """

    qualname: str
    module_path: str
    line: int
    node: ast.FunctionDef | ast.AsyncFunctionDef
    calls: list[CallSite] = field(default_factory=list)


def module_dotted(path: str) -> str:
    """Dotted module name for a root-relative path.

    ``"serve/fleet.py"`` -> ``"serve.fleet"``; ``"serve/__init__.py"``
    -> ``"serve"``; a root-level ``"__init__.py"`` -> ``""``.
    """
    dotted = path[:-3] if path.endswith(".py") else path
    dotted = dotted.replace("/", ".")
    if dotted.endswith("__init__"):
        dotted = dotted[: -len("__init__")].rstrip(".")
    return dotted


class CallGraph:
    """Functions and resolved call edges of one scanned module set."""

    def __init__(self) -> None:
        #: qualname -> node, for every function/method in the tree.
        self.functions: dict[str, FunctionNode] = {}
        #: qualname -> sorted caller qualnames (reverse adjacency).
        self._callers: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, modules: Sequence[ModuleUnderAnalysis]) -> "CallGraph":
        """Build the graph for a module set (one lint pass's parse)."""
        graph = cls()
        ordered = sorted(modules, key=lambda m: m.path)
        for module in ordered:
            graph._register_functions(module)
        for module in ordered:
            graph._resolve_calls(module)
        graph._index_callers()
        return graph

    def _register_functions(self, module: ModuleUnderAnalysis) -> None:
        prefix = module_dotted(module.path)
        for qualname, node in _walk_definitions(module.tree, prefix):
            self.functions[qualname] = FunctionNode(
                qualname=qualname,
                module_path=module.path,
                line=node.lineno,
                node=node,
            )

    def _resolve_calls(self, module: ModuleUnderAnalysis) -> None:
        prefix = module_dotted(module.path)
        local_functions = {
            qualname.rsplit(".", 1)[-1]: qualname
            for qualname, node in self.functions.items()
            if node.module_path == module.path
            and qualname.count(".") == (prefix.count(".") + 1 if prefix else 0)
        }
        for qualname, _node in _walk_definitions(module.tree, prefix):
            owner = self.functions[qualname]
            class_name = _enclosing_class(qualname, prefix)
            for call in _calls_of(owner.node):
                site = self._resolve_one(
                    module, qualname, class_name, prefix, local_functions, call
                )
                if site is not None:
                    owner.calls.append(site)

    def _resolve_one(
        self,
        module: ModuleUnderAnalysis,
        caller: str,
        class_name: str | None,
        prefix: str,
        local_functions: dict[str, str],
        call: ast.Call,
    ) -> CallSite | None:
        func = call.func
        callee: str | None = None
        external: str | None = None
        if isinstance(func, ast.Name):
            if func.id in local_functions:
                callee = local_functions[func.id]
            else:
                dotted = module.resolve(func)
                if dotted is None:
                    return None
                callee = self._match_internal(dotted)
                external = None if callee else dotted
        elif isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id == "self"
                and class_name is not None
            ):
                method = _join(prefix, f"{class_name}.{func.attr}")
                if method in self.functions:
                    callee = method
                else:
                    return None  # unknown method on self: drop, not external
            else:
                dotted = module.resolve(func)
                if dotted is None:
                    return None
                callee = self._match_internal(dotted)
                external = None if callee else dotted
        else:
            return None
        return CallSite(
            caller=caller,
            callee=callee,
            external=external,
            line=call.lineno,
            col=call.col_offset,
        )

    def _match_internal(self, dotted: str) -> str | None:
        """Map a resolved dotted name onto a scanned function, if any.

        Tries the name as-is, then with the leading package component
        stripped, so absolute imports (``repro.core.ppw.select_fopt``)
        match the root-relative qualnames the graph is keyed by.
        """
        if dotted in self.functions:
            return dotted
        _root, _sep, rest = dotted.partition(".")
        if rest and rest in self.functions:
            return rest
        return None

    def _index_callers(self) -> None:
        callers: dict[str, set[str]] = {}
        for qualname, node in self.functions.items():
            for site in node.calls:
                if site.callee is not None:
                    callers.setdefault(site.callee, set()).add(qualname)
        self._callers = {
            callee: sorted(names) for callee, names in callers.items()
        }

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def callers_of(self, qualname: str) -> list[str]:
        """Direct callers of a function, sorted."""
        return list(self._callers.get(qualname, ()))

    def calls_from(self, qualname: str) -> list[CallSite]:
        """Outgoing call sites of a function, in source order."""
        node = self.functions.get(qualname)
        return list(node.calls) if node is not None else []

    def to_record(self) -> dict:
        """JSON-serializable dump (``repro lint --graph``)."""
        edges = []
        for qualname in sorted(self.functions):
            for site in self.functions[qualname].calls:
                edges.append(
                    {
                        "caller": site.caller,
                        "callee": site.callee,
                        "external": site.external,
                        "line": site.line,
                    }
                )
        return {
            "functions": len(self.functions),
            "edges": edges,
            "modules": sorted(
                {node.module_path for node in self.functions.values()}
            ),
        }


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def _enclosing_class(qualname: str, prefix: str) -> str | None:
    """Class component of ``module.Class.method`` qualnames, if any."""
    local = qualname[len(prefix) + 1 :] if prefix else qualname
    head, sep, _tail = local.rpartition(".")
    return head if sep else None


def _walk_definitions(
    tree: ast.Module, prefix: str
) -> Iterator[tuple[str, ast.FunctionDef | ast.AsyncFunctionDef]]:
    """Top-level functions and methods of top-level classes.

    Nested defs are *not* registered as nodes of their own: their call
    sites are attributed to the enclosing function by
    :func:`_calls_of`, which over-approximates reachability (a nested
    def handed out as a callback still counts as reachable) -- the
    right bias for a hazard analysis.
    """
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield _join(prefix, stmt.name), stmt
        elif isinstance(stmt, ast.ClassDef):
            for inner in stmt.body:
                if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield _join(prefix, f"{stmt.name}.{inner.name}"), inner


def _calls_of(node: ast.FunctionDef | ast.AsyncFunctionDef) -> Iterator[ast.Call]:
    """Every call in a function body, including inside nested defs."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            yield sub
