"""Concurrency-safety rules (R101..R105) for the multi-process layers.

PRs 5-7 grew a fleet of forked worker processes (``serve/shard.py`` on
:class:`repro.runtime.pool.PersistentWorker`), a 3-verb pipe protocol
with crash-recovery verb replay, an fsync-batched telemetry store, and
an atomic model registry.  Each carries invariants that nothing
checked statically until now:

========  ==========================================================
R101      No fork-unsafe state at module level in code that runs
          inside worker processes (open handles, RNG instances,
          locks created at import time are silently duplicated by
          ``fork`` and shared through inherited descriptors)
R102      Registry/telemetry publishes are atomic: write a
          same-directory ``*.tmp`` sibling, then ``os.replace`` /
          ``os.rename`` it into place (append-only streams excepted)
R103      The shard pipe protocol's verb sets are enumerated once
          and every dispatch site handles every verb (a verb added
          to the set but not to the worker loop or the router
          collect path hangs or errors at runtime)
R104      Payloads sent over shard pipes are picklable by shape: no
          lambdas or function-local defs/classes in dispatch
          arguments
R105      No shared-mutable default arguments in the serving,
          learning, or runtime layers (a mutated default leaks
          state across requests and, after a respawn replay,
          across worker generations)
========  ==========================================================
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Sequence

from repro.analysis.findings import Finding
from repro.analysis.rules import (
    ModuleUnderAnalysis,
    ProjectRule,
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

    ``PersistentWorker`` forks the router process; every module-level
    object in an imported module is duplicated into each worker.  A
    file handle opened at import time shares its descriptor and offset
    across the fleet; a module-level lock can be copied in the locked
    state; a module-level RNG gives every worker the same stream.
    Construct these inside ``__init__`` / the worker entry instead, so
    each process owns its own.
    """

    rule_id = "R101"
    title = "no fork-unsafe module-level state in worker-dispatched code"
    rationale = (
        "fork duplicates import-time handles, locks, and RNG state "
        "into every shard worker, aliasing what must be per-process"
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


# ----------------------------------------------------------------------
# R103 -- pipe-protocol verb exhaustiveness
# ----------------------------------------------------------------------
class PipeProtocolRule(ProjectRule):
    """Every enumerated pipe verb is handled at every dispatch site.

    The shard protocol's verbs are enumerated once, in module-level
    ``*_VERBS`` frozensets (``serve/shard.py``).  A *dispatch site* is
    a function comparing one subject expression against two or more of
    a set's verbs (``verb == "decide"`` chains or ``match`` arms); the
    rule requires each bound site to compare against the complete set,
    and flags comparisons against strings outside it (typos).  Adding
    a verb to the set without teaching both the worker loop and the
    router collect path about it fails statically instead of hanging a
    pipe at runtime.
    """

    rule_id = "R103"
    title = "pipe-protocol dispatch must handle every enumerated verb"
    rationale = (
        "a verb replayed by crash recovery but unknown to the worker "
        "loop or the collect path stalls or errors the whole shard"
    )

    _set_name = re.compile(r".*_VERBS$")

    def check_project(
        self, modules: Sequence[ModuleUnderAnalysis], graph
    ) -> list[Finding]:
        verb_sets = self._verb_sets(modules)
        if not verb_sets:
            return []
        findings: list[Finding] = []
        for module in sorted(modules, key=lambda m: m.path):
            findings.extend(self._check_module(module, verb_sets))
        return findings

    def _verb_sets(
        self, modules: Sequence[ModuleUnderAnalysis]
    ) -> dict[str, frozenset[str]]:
        """Module-level ``NAME_VERBS = frozenset({...})`` enumerations."""
        sets: dict[str, frozenset[str]] = {}
        for module in sorted(modules, key=lambda m: m.path):
            for stmt in module.tree.body:
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if not (
                        isinstance(target, ast.Name)
                        and self._set_name.match(target.id)
                    ):
                        continue
                    verbs = _string_elements(stmt.value)
                    if verbs:
                        sets[target.id] = frozenset(verbs)
        return sets

    def _check_module(
        self,
        module: ModuleUnderAnalysis,
        verb_sets: dict[str, frozenset[str]],
    ) -> list[Finding]:
        findings: list[Finding] = []
        for func in _functions_of(module.tree):
            # Group string equality comparisons by their subject
            # expression, so `verb == ...` chains bind together and
            # unrelated string comparisons in the same function don't.
            subjects: dict[str, list[tuple[str, ast.AST]]] = {}
            for sub in ast.walk(func):
                for subject, literal, node in _string_comparisons(sub):
                    subjects.setdefault(subject, []).append((literal, node))
            for subject in sorted(subjects):
                compared = subjects[subject]
                literals = {literal for literal, _node in compared}
                name, verbs = self._bind(literals, verb_sets)
                if name is None:
                    continue
                missing = sorted(verbs - literals)
                if missing:
                    findings.append(
                        self.finding(
                            module,
                            func,
                            f"dispatch over {name} in {func.name}() does "
                            f"not handle {', '.join(repr(v) for v in missing)}; "
                            "every enumerated verb needs an arm at every "
                            "match site (worker loop and collect path)",
                        )
                    )
                for literal, node in sorted(
                    compared, key=lambda item: (item[0], item[1].lineno)
                ):
                    if literal not in verbs:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"{literal!r} compared at a {name} dispatch "
                                f"site but absent from {name}; add it to "
                                "the enumeration or fix the typo",
                            )
                        )
        return findings

    def _bind(
        self,
        literals: set[str],
        verb_sets: dict[str, frozenset[str]],
    ) -> tuple[str | None, frozenset[str]]:
        """The verb set a comparison group belongs to, if any.

        A group binds to the set it overlaps most (two-verb minimum,
        ties resolved by name for determinism).
        """
        best: tuple[int, str] | None = None
        for name in sorted(verb_sets):
            overlap = len(literals & verb_sets[name])
            if overlap >= 2 and (best is None or overlap > best[0]):
                best = (overlap, name)
        if best is None:
            return None, frozenset()
        return best[1], verb_sets[best[1]]


def _string_elements(expr: ast.expr) -> list[str]:
    """String constants of a set/frozenset/tuple/list literal."""
    if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
        if expr.func.id in ("frozenset", "set", "tuple") and expr.args:
            return _string_elements(expr.args[0])
        return []
    if isinstance(expr, (ast.Set, ast.Tuple, ast.List)):
        elements = []
        for element in expr.elts:
            if isinstance(element, ast.Constant) and isinstance(
                element.value, str
            ):
                elements.append(element.value)
            else:
                return []  # mixed content: not a verb enumeration
        return elements
    return []


def _functions_of(
    tree: ast.Module,
) -> Iterator[ast.FunctionDef | ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _string_comparisons(
    node: ast.AST,
) -> Iterator[tuple[str, str, ast.AST]]:
    """``(subject-dump, literal, node)`` for string equality tests.

    Covers ``subject == "literal"`` comparisons and ``match subject``
    / ``case "literal"`` arms.
    """
    if isinstance(node, ast.Compare) and len(node.ops) == 1:
        if isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
            left, right = node.left, node.comparators[0]
            if isinstance(right, ast.Constant) and isinstance(
                right.value, str
            ):
                yield ast.dump(left), right.value, node
            elif isinstance(left, ast.Constant) and isinstance(
                left.value, str
            ):
                yield ast.dump(right), left.value, node
    elif isinstance(node, ast.Match):
        subject = ast.dump(node.subject)
        for case in node.cases:
            pattern = case.pattern
            if isinstance(pattern, ast.MatchValue) and isinstance(
                pattern.value, ast.Constant
            ):
                if isinstance(pattern.value.value, str):
                    yield subject, pattern.value.value, pattern


# ----------------------------------------------------------------------
# R104 -- unpicklable payload shapes over shard pipes
# ----------------------------------------------------------------------
class UnpicklablePayloadRule(Rule):
    """Nothing sent over a worker pipe may be unpicklable by shape.

    The shard protocol pickles every dispatched payload; a lambda or a
    function-local def/class in the arguments raises
    ``PicklingError`` only at dispatch time -- and only on the process
    path, since :class:`SerialShard` never pickles.  The rule makes the
    shape error static: no lambdas and no function-local callables in
    the arguments of ``send``/``dispatch``/``submit`` calls in
    worker-dispatched code.
    """

    rule_id = "R104"
    title = "no lambdas or local defs in pipe-dispatched payloads"
    rationale = (
        "pickle rejects lambdas and local classes only at runtime, and "
        "only on the process-shard path the serial tests never take"
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

    A mutable default is evaluated once and shared by every call -- and
    in the fleet, by every request a worker serves across its lifetime,
    including batches replayed after a crash respawn.  State smuggled
    through one breaks the purity argument that makes retry idempotent.
    """

    rule_id = "R105"
    title = "no shared-mutable default arguments in serving layers"
    rationale = (
        "a mutated default argument carries state between requests and "
        "across crash-recovery replays, breaking retry idempotence"
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
                            "across every call and every replayed batch; "
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
    PipeProtocolRule(),
    UnpicklablePayloadRule(),
    MutableDefaultRule(),
)
