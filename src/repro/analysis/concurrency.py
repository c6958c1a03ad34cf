"""Concurrency-safety rules (R101, R102, R104, R105).

The runtime pool (:mod:`repro.runtime.pool`) forks worker processes,
pickles jobs to them and retries jobs after a crash; the telemetry
store batches its fsyncs; the model registry publishes atomically.
Each carries invariants that only these rules check statically:

========  ==========================================================
R101      No fork-unsafe state at module level in code that may run
          inside worker processes (open handles, RNG instances,
          locks created at import time are silently duplicated by
          ``fork`` and shared through inherited descriptors)
R102      Registry/telemetry publishes are atomic: write a
          same-directory ``*.tmp`` sibling, then ``os.replace`` /
          ``os.rename`` it into place (append-only streams excepted)
R104      Payloads sent to worker processes are picklable by shape:
          no lambdas or function-local defs/classes in dispatch
          arguments.  The runtime pool's ``executor.submit`` is the
          one such call that reaches a process; the decision router's
          ``submit`` runs in-process and is held to the same shape
R105      No shared-mutable default arguments in the serving,
          learning, or runtime layers (a mutated default leaks
          state across requests and across retried jobs)
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    ModuleUnderAnalysis,
    Rule,
    _path_in,
)

#: Trees whose code runs (or is dispatched) inside worker processes.
WORKER_DISPATCHED = ("serve/", "learn/", "runtime/")


# ----------------------------------------------------------------------
# R101 -- fork-unsafe module-level state
# ----------------------------------------------------------------------
class ForkUnsafeStateRule(Rule):
    """No live resources constructed at import time in worker code.

    The runtime pool forks its parent process; every module-level
    object in an imported module is duplicated into each worker.  A
    file handle opened at import time shares its descriptor and offset
    across the pool; a module-level lock can be copied in the locked
    state; a module-level RNG gives every worker the same stream.
    Construct these inside ``__init__`` / the worker entry instead, so
    each process owns its own.
    """

    rule_id = "R101"
    title = "no fork-unsafe module-level state in worker-dispatched code"
    rationale = (
        "fork duplicates import-time handles, locks, and RNG state "
        "into every worker process, aliasing what must be per-process"
    )

    scope = WORKER_DISPATCHED

    _banned_constructors = {
        "threading.Lock": "lock",
        "threading.RLock": "lock",
        "threading.Condition": "condition variable",
        "threading.Event": "event",
        "threading.Semaphore": "semaphore",
        "threading.BoundedSemaphore": "semaphore",
        "multiprocessing.Lock": "lock",
        "multiprocessing.RLock": "lock",
        "multiprocessing.Queue": "queue",
        "multiprocessing.Pipe": "pipe",
        "random.Random": "RNG instance",
        "numpy.random.default_rng": "RNG instance",
        "numpy.random.Generator": "RNG instance",
        "socket.socket": "socket",
        "tempfile.NamedTemporaryFile": "open file handle",
        "tempfile.TemporaryFile": "open file handle",
    }

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not _path_in(module.path, self.scope):
            return []
        findings = []
        for node in _import_time_statements(module.tree):
            for value in _assigned_values(node):
                described = self._describe(module, value)
                if described is not None:
                    what, dotted = described
                    findings.append(
                        self.finding(
                            module,
                            value,
                            f"module-level {what} ({dotted}) is created at "
                            "import time and duplicated into every forked "
                            "worker; construct it per-process (in __init__ "
                            "or the worker entry) instead",
                        )
                    )
        return findings

    def _describe(
        self, module: ModuleUnderAnalysis, value: ast.expr
    ) -> tuple[str, str] | None:
        if not isinstance(value, ast.Call):
            return None
        if isinstance(value.func, ast.Name) and value.func.id == "open":
            if (
                "open" not in module.imports
                and "open" not in module.from_imports
            ):
                return ("open file handle", "open")
        dotted = module.resolve(value.func)
        if dotted is None:
            return None
        if dotted == "builtins.open":
            return ("open file handle", dotted)
        what = self._banned_constructors.get(dotted)
        return (what, dotted) if what is not None else None


def _import_time_statements(tree: ast.Module) -> Iterator[ast.stmt]:
    """Statements executed at import: module body and class bodies,
    recursing through top-level ``if``/``try``/``with`` but never into
    function bodies."""
    stack: list[ast.stmt] = list(tree.body)
    while stack:
        stmt = stack.pop()
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                stack.append(child)


def _assigned_values(stmt: ast.stmt) -> Iterator[ast.expr]:
    if isinstance(stmt, ast.Assign):
        yield stmt.value
    elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
        if getattr(stmt, "value", None) is not None:
            yield stmt.value  # type: ignore[misc]


# ----------------------------------------------------------------------
# R102 -- non-atomic publish into registry/telemetry directories
# ----------------------------------------------------------------------
class NonAtomicPublishRule(Rule):
    """Durable state becomes visible only through an atomic rename.

    The model registry and the artifact cache follow one convention:
    build the payload under a pid-unique ``*.tmp`` sibling *in the
    destination directory*, then ``os.replace`` / ``os.rename`` it
    into place, so readers (and crash-recovering workers) never
    observe a half-written file.  The telemetry store is the sanctioned
    exception: an append-only stream (``open(..., "a")``) whose readers
    tolerate a torn tail line.

    The check is spelling-level, like the rest of the rule set: a
    write-mode open / ``write_text`` must target a path whose
    expression carries a ``tmp`` marker, a rename/replace must publish
    *from* such a path, and :mod:`tempfile` is banned outright in
    these modules (its files live in ``$TMPDIR``, and a rename across
    filesystems is not atomic).
    """

    rule_id = "R102"
    title = "registry/telemetry writes must publish via tmp + os.replace"
    rationale = (
        "crash-recovering workers and concurrent readers must never "
        "observe a half-written model, pointer, or meta file"
    )

    #: The durable-publish modules held to the convention.
    scope = (
        "learn/registry.py",
        "learn/telemetry.py",
        "experiments/cache.py",
    )

    _renames = {"os.rename", "os.replace", "shutil.move"}
    _write_modes = ("w", "x", "a")

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not _path_in(module.path, self.scope):
            return []
        findings = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            findings.extend(self._check_call(module, node))
        return findings

    def _check_call(
        self, module: ModuleUnderAnalysis, call: ast.Call
    ) -> list[Finding]:
        dotted = module.resolve(call.func)
        if dotted is not None and dotted.startswith("tempfile."):
            return [
                self.finding(
                    module,
                    call,
                    f"{dotted} creates the temp file outside the "
                    "destination directory; build a pid-unique *.tmp "
                    "sibling next to the final path so os.replace stays "
                    "atomic (never crosses filesystems)",
                )
            ]
        if dotted in self._renames:
            if call.args and not _mentions_tmp(call.args[0]):
                return [
                    self.finding(
                        module,
                        call,
                        f"{dotted} publishing from a non-tmp path; write "
                        "to a *.tmp sibling first so the rename is the "
                        "only moment of visibility",
                    )
                ]
            return []
        mode = self._write_mode(module, call)
        if mode is None:
            return []
        mode_kind, path_expr = mode
        if mode_kind.startswith("a"):
            return []  # append-only stream: the telemetry contract
        if path_expr is not None and _mentions_tmp(path_expr):
            return []
        return [
            self.finding(
                module,
                call,
                "write-mode open of a non-tmp path; publish through a "
                "same-directory *.tmp sibling plus os.replace so readers "
                "never see a partial file",
            )
        ]

    def _write_mode(
        self, module: ModuleUnderAnalysis, call: ast.Call
    ) -> tuple[str, ast.expr | None] | None:
        """``(mode, path-expr)`` when the call writes a file."""
        func = call.func
        if isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            return ("w", func.value)
        is_open = (
            isinstance(func, ast.Name)
            and func.id == "open"
            and "open" not in module.imports
            and "open" not in module.from_imports
        ) or module.resolve(func) == "builtins.open"
        is_method_open = (
            isinstance(func, ast.Attribute) and func.attr == "open"
        )
        if not is_open and not is_method_open:
            return None
        mode_value: str | None = None
        mode_index = 1 if is_open else 0
        if len(call.args) > mode_index:
            mode_node = call.args[mode_index]
            if isinstance(mode_node, ast.Constant) and isinstance(
                mode_node.value, str
            ):
                mode_value = mode_node.value
        for keyword in call.keywords:
            if keyword.arg == "mode" and isinstance(
                keyword.value, ast.Constant
            ):
                mode_value = str(keyword.value.value)
        if mode_value is None:
            mode_value = "r"
        if not any(mode_value.startswith(m) for m in self._write_modes):
            return None
        path_expr: ast.expr | None
        if is_open:
            path_expr = call.args[0] if call.args else None
        else:
            path_expr = func.value  # type: ignore[union-attr]
        return (mode_value, path_expr)


def _mentions_tmp(expr: ast.expr) -> bool:
    """Whether a path expression carries the tmp-sibling convention."""
    for sub in ast.walk(expr):
        if isinstance(sub, ast.Name) and "tmp" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "tmp" in sub.attr.lower():
            return True
        if (
            isinstance(sub, ast.Constant)
            and isinstance(sub.value, str)
            and "tmp" in sub.value.lower()
        ):
            return True
    return False


def _functions_of(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


# ----------------------------------------------------------------------
# R104 -- unpicklable payload shapes sent to worker processes
# ----------------------------------------------------------------------
class UnpicklablePayloadRule(Rule):
    """Nothing sent over a worker pipe may be unpicklable by shape.

    Everything sent to a worker process is pickled; a lambda or a
    function-local def/class in the arguments raises
    ``PicklingError`` only at dispatch time -- and only on the process
    path, since the serial fallback never pickles.  The rule makes the
    shape error static: no lambdas and no function-local callables in
    the arguments of ``send``/``dispatch``/``submit`` calls in
    worker-dispatched code.
    """

    rule_id = "R104"
    title = "no lambdas or local defs in pipe-dispatched payloads"
    rationale = (
        "pickle rejects lambdas and local classes only at runtime, and "
        "only on the process path the serial tests never take"
    )

    scope = WORKER_DISPATCHED

    _dispatch_methods = ("send", "dispatch", "submit", "apply_async")

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not _path_in(module.path, self.scope):
            return []
        findings = []
        for func in _functions_of(module.tree):
            local_callables = _local_callable_names(func)
            for sub in ast.walk(func):
                if not isinstance(sub, ast.Call):
                    continue
                if not (
                    isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in self._dispatch_methods
                ):
                    continue
                findings.extend(
                    self._check_payload(module, sub, local_callables)
                )
        return findings

    def _check_payload(
        self,
        module: ModuleUnderAnalysis,
        call: ast.Call,
        local_callables: set[str],
    ) -> list[Finding]:
        findings = []
        payload_nodes = list(call.args) + [kw.value for kw in call.keywords]
        for payload in payload_nodes:
            for sub in ast.walk(payload):
                if isinstance(sub, ast.Lambda):
                    findings.append(
                        self.finding(
                            module,
                            sub,
                            "lambda in a pipe-dispatched payload; pickle "
                            "cannot serialize it -- pass a module-level "
                            "function (or functools.partial of one)",
                        )
                    )
                elif (
                    isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)
                    and sub.id in local_callables
                ):
                    findings.append(
                        self.finding(
                            module,
                            sub,
                            f"function-local callable {sub.id!r} in a "
                            "pipe-dispatched payload; pickle resolves "
                            "callables by qualified name, so it must be "
                            "defined at module level",
                        )
                    )
        return findings


def _local_callable_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> set[str]:
    """Names of defs/classes nested inside a function body."""
    names: set[str] = set()
    for stmt in func.body:
        for sub in ast.walk(stmt):
            if isinstance(
                sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.add(sub.name)
    return names


# ----------------------------------------------------------------------
# R105 -- shared-mutable default arguments
# ----------------------------------------------------------------------
class MutableDefaultRule(Rule):
    """No mutable default arguments in serve/learn/runtime code.

    A mutable default is evaluated once and shared by every call -- by
    every request the router serves across its lifetime, and by every
    job the runtime pool retries after a crash.  State smuggled through
    one breaks the purity argument that makes retry idempotent.
    """

    rule_id = "R105"
    title = "no shared-mutable default arguments in serving layers"
    rationale = (
        "a mutated default argument carries state between requests and "
        "across retried jobs, breaking retry idempotence"
    )

    scope = WORKER_DISPATCHED

    _mutable_constructors = {"list", "dict", "set", "bytearray"}

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not _path_in(module.path, self.scope):
            return []
        findings = []
        for node in module.walk():
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                what = self._mutable_kind(module, default)
                if what is not None:
                    findings.append(
                        self.finding(
                            module,
                            default,
                            f"mutable default argument ({what}) is shared "
                            "across every call and every retried job; "
                            "default to None and construct per call",
                        )
                    )
        return findings

    def _mutable_kind(
        self, module: ModuleUnderAnalysis, expr: ast.expr
    ) -> str | None:
        if isinstance(expr, (ast.List, ast.ListComp)):
            return "list"
        if isinstance(expr, (ast.Dict, ast.DictComp)):
            return "dict"
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            name = expr.func.id
            if (
                name in self._mutable_constructors
                and name not in module.imports
                and name not in module.from_imports
            ):
                return f"{name}()"
        return None


#: The concurrency family, in id order.
CONCURRENCY_RULES: tuple[Rule, ...] = (
    ForkUnsafeStateRule(),
    NonAtomicPublishRule(),
    UnpicklablePayloadRule(),
    MutableDefaultRule(),
)
