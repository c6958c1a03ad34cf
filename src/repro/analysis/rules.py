"""The determinism & calibration rule set (R001..R006).

Each rule protects a specific guarantee an earlier PR established:

========  ==========================================================
R001      Per-measurement seeded streams (parallel == serial replay)
R002      No wall-clock in model/simulation code (runs are pure
          functions of their inputs)
R003      No BLAS tree reductions in ``# repro: bit-exact`` modules
          (vectorized == scalar, bit for bit)
R004      No environment reads outside the two sanctioned modules
          (cache keys and results cannot depend on ambient env)
R005      No set/dict-value iteration feeding numeric accumulation
          (float sums must have one canonical order)
R006      Model-affecting constants are immutable outside the
          calibration workflow (the fingerprint next to
          ``CALIBRATION_TAG`` stays honest)
========  ==========================================================

Rules see a parsed :class:`ModuleUnderAnalysis` and emit
:class:`~repro.analysis.findings.Finding` records; suppression and
baseline handling live in :mod:`repro.analysis.engine`.

Name resolution is import-aware but deliberately simple: an attribute
chain is resolved through the module's import table (``import numpy as
np`` makes ``np.random.rand`` resolve to ``numpy.random.rand``;
``from time import monotonic`` makes a bare ``monotonic`` resolve to
``time.monotonic``).  Local variables that alias modules defeat it --
acceptable, because the goal is catching the overwhelmingly common
spelling of each hazard, with code review covering exotic aliasing.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Sequence

from repro.analysis.findings import Finding

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.analysis.callgraph import CallGraph


@dataclass
class ModuleUnderAnalysis:
    """One parsed source module plus the metadata rules consult.

    Attributes:
        path: POSIX path relative to the scanned package root
            (e.g. ``"soc/cache.py"``); rules match path prefixes
            against it.
        tree: Parsed AST of the module.
        lines: Source split into lines (1-based access via
            :meth:`line`).
        bit_exact: Whether the module declares ``# repro: bit-exact``.
        imports: Alias -> dotted module path for plain imports.
        from_imports: Local name -> fully dotted origin for
            from-imports.
    """

    path: str
    tree: ast.Module
    lines: list[str]
    bit_exact: bool = False
    imports: dict[str, str] = field(default_factory=dict)
    from_imports: dict[str, str] = field(default_factory=dict)

    def line(self, lineno: int) -> str:
        """The stripped source line at a 1-based line number."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    # ------------------------------------------------------------------
    # Import-aware name resolution
    # ------------------------------------------------------------------
    def resolve(self, node: ast.expr) -> str | None:
        """Resolve a Name/Attribute chain to a dotted origin, if known.

        ``np.random.rand`` -> ``"numpy.random.rand"`` under
        ``import numpy as np``; a bare ``default_rng`` ->
        ``"numpy.random.default_rng"`` under
        ``from numpy.random import default_rng``.  Returns ``None``
        for anything that does not bottom out in an imported name.
        """
        parts: list[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        parts.reverse()
        root = current.id
        if root in self.imports:
            return ".".join([self.imports[root], *parts])
        if root in self.from_imports:
            return ".".join([self.from_imports[root], *parts])
        return None

    def walk(self) -> Iterator[ast.AST]:
        """All AST nodes of the module."""
        return ast.walk(self.tree)


def build_import_tables(module: ModuleUnderAnalysis) -> None:
    """Populate the module's import/from-import resolution tables."""
    for node in module.walk():
        if isinstance(node, ast.Import):
            for alias in node.names:
                module.imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                # `import numpy.random` binds the root name `numpy` but
                # makes the submodule reachable through it, which plain
                # root mapping already covers.
                if alias.asname and "." in alias.name:
                    module.imports[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports stay package-local
            for alias in node.names:
                module.from_imports[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )


class Rule:
    """Base class: one statically checkable invariant.

    Attributes:
        rule_id: Stable identifier (``"R001"``..), used in suppression
            comments and baseline entries.
        title: Short human-readable name.
        rationale: Which guarantee the rule protects (shown in docs).
    """

    rule_id: str = ""
    title: str = ""
    rationale: str = ""

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        """Findings for one module (suppressions applied later)."""
        raise NotImplementedError

    def finding(
        self, module: ModuleUnderAnalysis, node: ast.AST, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            rule_id=self.rule_id,
            path=module.path,
            line=lineno,
            col=col,
            message=message,
            snippet=module.line(lineno),
        )


class ProjectRule(Rule):
    """A rule that needs the whole module set (and the call graph).

    Per-module rules see one file at a time; a project rule's
    :meth:`check_project` runs once after every module has been parsed,
    with the cross-module call graph
    (:class:`repro.analysis.callgraph.CallGraph`) built on demand by
    the engine.  Findings still anchor at one source location, so the
    suppression and baseline machinery applies unchanged.
    """

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        """Project rules contribute nothing in the per-module pass."""
        return []

    def check_project(
        self, modules: Sequence["ModuleUnderAnalysis"], graph: "CallGraph"
    ) -> list[Finding]:
        """Findings over the whole scanned tree."""
        raise NotImplementedError


def _path_in(path: str, prefixes: tuple[str, ...]) -> bool:
    """Whether a module path lies in any of the given trees/files."""
    return any(
        path == prefix or path.startswith(prefix.rstrip("/") + "/")
        if prefix.endswith("/") or not prefix.endswith(".py")
        else path == prefix
        for prefix in prefixes
    )


# ----------------------------------------------------------------------
# R001 -- global / unseeded RNG
# ----------------------------------------------------------------------
class UnseededRngRule(Rule):
    """Every random draw must come from an explicitly seeded stream.

    The campaign's parallel == serial bit-identity (PR 1) holds because
    each measurement owns a :class:`numpy.random.SeedSequence`-derived
    stream (``models/training.py::measurement_rng``).  A call into the
    process-global NumPy or :mod:`random` state -- or a
    ``default_rng()`` seeded from OS entropy -- reintroduces
    order-dependent results that the sampled determinism tests can
    easily miss.
    """

    rule_id = "R001"
    title = "no global or unseeded RNG"
    rationale = (
        "parallel campaign replay is bit-identical to serial only while "
        "every stream derives from the campaign seed"
    )

    #: The stream factory module allowed to construct generators.
    allowed_modules = ("models/training.py",)

    #: numpy.random names that are seed plumbing, not draws.
    _seed_plumbing = {
        "numpy.random.SeedSequence",
        "numpy.random.Generator",
        "numpy.random.PCG64",
        "numpy.random.Philox",
        "numpy.random.BitGenerator",
    }

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if _path_in(module.path, self.allowed_modules):
            return []
        findings = []
        for node in module.walk():
            if not isinstance(node, ast.Call):
                continue
            dotted = module.resolve(node.func)
            if dotted is None:
                continue
            message = self._violation(dotted, node)
            if message is not None:
                findings.append(self.finding(module, node, message))
        return findings

    def _violation(self, dotted: str, call: ast.Call) -> str | None:
        if dotted == "numpy.random.default_rng":
            if not call.args and not call.keywords:
                return (
                    "default_rng() without a seed draws from OS entropy; "
                    "derive a stream via models.training.measurement_rng "
                    "or pass an explicit SeedSequence"
                )
            return None
        if dotted in self._seed_plumbing:
            return None
        if dotted.startswith("numpy.random."):
            return (
                f"{dotted} uses NumPy's process-global RNG state; use a "
                "seeded Generator from models.training.measurement_rng"
            )
        if dotted == "random.Random" or dotted == "random.SystemRandom":
            if dotted == "random.SystemRandom":
                return "random.SystemRandom draws OS entropy (never reproducible)"
            if not call.args and not call.keywords:
                return (
                    "random.Random() without a seed is time-seeded; pass an "
                    "explicit seed"
                )
            return None
        if dotted.startswith("random."):
            return (
                f"{dotted} uses the module-global random state; construct a "
                "seeded random.Random instead"
            )
        return None


# ----------------------------------------------------------------------
# R002 -- wall-clock reads in model / simulation code
# ----------------------------------------------------------------------
class WallClockRule(Rule):
    """Simulation and model code must be a pure function of its inputs.

    Cached artifacts are shared across runs and machines keyed only by
    ``CALIBRATION_TAG`` + parameters; a wall-clock read anywhere under
    the simulator, the SoC models, the trained models, or the serve
    kernel would make results (or admission decisions) depend on when
    they ran.  Benchmark/telemetry modules that *measure* wall time are
    allowlisted explicitly.
    """

    rule_id = "R002"
    title = "no wall-clock in simulation/model code"
    rationale = (
        "cache artifacts and decisions must depend only on inputs, "
        "never on when the code ran"
    )

    #: Trees/files where wall-clock access is forbidden.
    restricted = ("sim/", "soc/", "models/", "serve/batch_predictor.py")

    #: Benchmark/telemetry modules inside the restricted trees that
    #: legitimately time themselves.
    allowlist = ("sim/bench.py",)

    _banned = {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not _path_in(module.path, self.restricted):
            return []
        if _path_in(module.path, self.allowlist):
            return []
        findings = []
        for node in module.walk():
            # Flag any reference (not just calls): passing time.monotonic
            # as a default clock argument is the same hazard.
            if isinstance(node, (ast.Attribute, ast.Name)):
                if isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del)):
                    continue
                dotted = module.resolve(node)
                if dotted in self._banned:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{dotted} read in {module.path}; simulation/"
                            "model code must not observe wall-clock time "
                            "(inject a clock from the caller instead)",
                        )
                    )
        return _dedupe_by_location(findings)


# ----------------------------------------------------------------------
# R003 -- BLAS tree reductions in bit-exact modules
# ----------------------------------------------------------------------
class BlasReductionRule(Rule):
    """Bit-exact modules may only accumulate in a canonical order.

    ``np.dot`` / ``@`` / ``np.sum`` dispatch to BLAS or pairwise tree
    reductions whose rounding differs from a scalar left-to-right loop
    (and can differ between BLAS builds).  Modules tagged
    ``# repro: bit-exact`` are exactly the ones whose outputs must
    reproduce a scalar reference bit for bit, so they must use
    ``np.cumsum`` / ``np.add.accumulate`` or the per-row pairwise
    helper (``StackedModels.predict_rows``) instead.
    """

    rule_id = "R003"
    title = "no BLAS reductions in bit-exact modules"
    rationale = (
        "the fast-path engine and the serve kernel are bit-identical to "
        "their scalar references only under left-to-right accumulation"
    )

    _banned_calls = {
        "numpy.dot",
        "numpy.vdot",
        "numpy.inner",
        "numpy.matmul",
        "numpy.tensordot",
        "numpy.einsum",
        "numpy.sum",
        "numpy.nansum",
        "numpy.mean",
        "numpy.average",
        "numpy.linalg.multi_dot",
    }

    #: ndarray reduction methods whose evaluation order is not the
    #: scalar loop's (pairwise for sum/mean, BLAS for dot/matmul).
    _banned_methods = {"sum", "dot", "matmul", "mean", "trace"}

    _hint = (
        "; use np.cumsum / np.add.accumulate (strict "
        "left-to-right) or StackedModels.predict_rows (fixed per-row "
        "pairwise order) to keep bit-identity with the scalar reference"
    )

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if not module.bit_exact:
            return []
        findings = []
        for node in module.walk():
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
                findings.append(
                    self.finding(
                        module, node, "matrix-multiply operator @" + self._hint
                    )
                )
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, ast.MatMult
            ):
                findings.append(
                    self.finding(module, node, "@= matrix multiply" + self._hint)
                )
            elif isinstance(node, ast.Call):
                dotted = module.resolve(node.func)
                if dotted in self._banned_calls:
                    findings.append(
                        self.finding(module, node, dotted + self._hint)
                    )
                elif (
                    dotted is None
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._banned_methods
                ):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f".{node.func.attr}() reduction" + self._hint,
                        )
                    )
        return findings


# ----------------------------------------------------------------------
# R004 -- environment reads outside sanctioned modules
# ----------------------------------------------------------------------
class EnvReadRule(Rule):
    """Only the runtime pool and the artifact cache may read the env.

    ``REPRO_WORKERS`` / ``REPRO_CACHE_DIR`` / ``REPRO_NO_CACHE`` are
    deliberate operator knobs, centralised in ``runtime/pool.py`` and
    ``experiments/cache.py``.  An environment read anywhere else makes
    results depend on ambient shell state that no cache key captures.
    """

    rule_id = "R004"
    title = "no os.environ outside runtime/pool.py and experiments/cache.py"
    rationale = (
        "cache keys capture explicit parameters only; ambient env reads "
        "would let two machines share artifacts they computed differently"
    )

    allowed_modules = ("runtime/pool.py", "experiments/cache.py")

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if _path_in(module.path, self.allowed_modules):
            return []
        findings = []
        for node in module.walk():
            if isinstance(node, ast.Attribute):
                dotted = module.resolve(node)
                if dotted == "os.environ":
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "os.environ access; route operator knobs "
                            "through runtime/pool.py or experiments/"
                            "cache.py so cache keys stay honest",
                        )
                    )
            elif isinstance(node, ast.Call):
                dotted = module.resolve(node.func)
                if dotted in ("os.getenv", "os.putenv", "os.environb"):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"{dotted} access; route operator knobs through "
                            "runtime/pool.py or experiments/cache.py",
                        )
                    )
            elif isinstance(node, ast.Name):
                if module.resolve(node) == "os.environ" and isinstance(
                    node.ctx, ast.Load
                ):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            "os.environ access; route operator knobs "
                            "through runtime/pool.py or experiments/"
                            "cache.py so cache keys stay honest",
                        )
                    )
        return _dedupe_by_location(findings)


# ----------------------------------------------------------------------
# R005 -- unordered iteration feeding numeric accumulation
# ----------------------------------------------------------------------
class NondetAccumulationRule(Rule):
    """Float accumulation must iterate in one canonical order.

    Set iteration order depends on ``PYTHONHASHSEED`` for strings, and
    dict-value order silently encodes insertion history; summing floats
    in either order bakes that order into the result's low bits.  The
    rule flags reductions (``sum``, ``math.fsum``, ``np.mean``, ...)
    whose argument draws from a set or ``.values()`` view, and loops
    over such iterables whose body numerically accumulates (``+=`` and
    friends).  Sort first, or iterate the keys in a defined order.

    The rule is deliberately conservative: dict insertion order *is*
    deterministic in CPython 3.7+, so some flagged sites are safe --
    those carry an inline ``# repro: allow[R005]`` with the argument,
    or live in the baseline.
    """

    rule_id = "R005"
    title = "no set/dict-value iteration feeding numeric accumulation"
    rationale = (
        "accumulated floats must not depend on hash or insertion order; "
        "a reordered sum changes bits and silently invalidates "
        "bit-identity guarantees"
    )

    _reductions = {
        "math.fsum",
        "math.prod",
        "numpy.sum",
        "numpy.nansum",
        "numpy.mean",
        "numpy.average",
        "numpy.std",
        "numpy.var",
        "numpy.median",
        "functools.reduce",
    }
    _builtin_reductions = {"sum"}
    _numeric_aug_ops = (ast.Add, ast.Sub, ast.Mult, ast.Div)

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        findings = []
        for node in module.walk():
            if isinstance(node, ast.Call):
                findings.extend(self._check_reduction(module, node))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                findings.extend(self._check_loop(module, node))
        return _dedupe_by_location(findings)

    # -- helpers -------------------------------------------------------
    def _unordered_kind(
        self, module: ModuleUnderAnalysis, expr: ast.expr
    ) -> str | None:
        """``"set"`` / ``"dict-values"`` when iteration order is suspect."""
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return "set"
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name) and expr.func.id in (
                "set",
                "frozenset",
            ):
                return "set"
            if (
                isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "values"
                and not expr.args
                and not expr.keywords
            ):
                return "dict-values"
        return None

    def _contains_unordered(
        self, module: ModuleUnderAnalysis, expr: ast.expr
    ) -> str | None:
        """Search an argument subtree for a suspect iterable.

        Looks through wrappers like ``list(...)`` and comprehension
        sources, so ``np.mean(list(d.values()))`` and
        ``sum(x for x in {..})`` both resolve.
        """
        for sub in ast.walk(expr):
            if isinstance(sub, ast.expr):
                kind = self._unordered_kind(module, sub)
                if kind is not None:
                    return kind
        return None

    def _is_reduction(
        self, module: ModuleUnderAnalysis, call: ast.Call
    ) -> str | None:
        if isinstance(call.func, ast.Name):
            if call.func.id in self._builtin_reductions and (
                call.func.id not in module.from_imports
                and call.func.id not in module.imports
            ):
                return call.func.id
        dotted = module.resolve(call.func)
        if dotted in self._reductions:
            return dotted
        return None

    def _check_reduction(
        self, module: ModuleUnderAnalysis, call: ast.Call
    ) -> list[Finding]:
        name = self._is_reduction(module, call)
        if name is None or not call.args:
            return []
        kind = self._contains_unordered(module, call.args[0])
        if kind is None:
            return []
        order = (
            "hash order" if kind == "set" else "dict insertion order"
        )
        return [
            self.finding(
                module,
                call,
                f"{name}() over a {kind} iterable accumulates floats in "
                f"{order}; sort the elements (or iterate sorted keys) so "
                "the reduction has one canonical order",
            )
        ]

    def _check_loop(
        self, module: ModuleUnderAnalysis, loop: ast.For | ast.AsyncFor
    ) -> list[Finding]:
        kind = self._unordered_kind(module, loop.iter)
        if kind is None:
            return []
        accumulates = any(
            isinstance(sub, ast.AugAssign)
            and isinstance(sub.op, self._numeric_aug_ops)
            for body_node in loop.body
            for sub in ast.walk(body_node)
        )
        if not accumulates:
            return []
        order = "hash order" if kind == "set" else "dict insertion order"
        return [
            self.finding(
                module,
                loop,
                f"loop over a {kind} iterable feeds a += accumulation in "
                f"{order}; iterate sorted keys so the accumulation order "
                "is canonical",
            )
        ]


# ----------------------------------------------------------------------
# R006 -- mutation of fingerprinted model constants
# ----------------------------------------------------------------------
class FingerprintMutationRule(Rule):
    """Model-affecting constants may only change via recalibration.

    The constants hashed into ``CALIBRATION_FINGERPRINT`` (Equation-5
    leakage parameters, the Table-I feature layout, the DVFS table, the
    prediction floors) define what every cached artifact means.  A
    module that imports one of those names and then rebinds or mutates
    it would change model behaviour *without* changing the fingerprint
    source, silently poisoning the shared cache.  Only the calibration
    workflow (``experiments/calibration.py``) may touch them.
    """

    rule_id = "R006"
    title = "no mutation of fingerprinted model constants"
    rationale = (
        "CALIBRATION_FINGERPRINT hashes these names' definitions; "
        "runtime mutation would desynchronize artifacts from the tag"
    )

    allowed_modules = ("experiments/calibration.py",)

    #: Names in the model-constant fingerprint set, per origin module.
    FINGERPRINT_NAMES = {
        "repro.soc.leakage": {
            "KELVIN_OFFSET",
            "LeakageParameters",
            "nexus5_leakage_parameters",
        },
        "repro.soc.specs": {
            "nexus5_spec",
            "generic_hexcore_spec",
            "DvfsState",
            "_NEXUS5_OPERATING_POINTS",
            "_NEXUS5_EVALUATION_MHZ",
        },
        "repro.models.features": {"TABLE_I_NAMES", "NUM_FEATURES"},
        "repro.models.performance_model": {"MIN_PREDICTED_LOAD_TIME_S"},
        "repro.models.power_model": {"MIN_PREDICTED_POWER_W"},
    }

    _mutators = {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }

    def check(self, module: ModuleUnderAnalysis) -> list[Finding]:
        if _path_in(module.path, self.allowed_modules):
            return []
        protected = {
            local
            for local, origin in module.from_imports.items()
            if any(
                origin == f"{mod}.{name}"
                for mod, names in self.FINGERPRINT_NAMES.items()
                for name in names
            )
        }
        if not protected:
            return []
        findings = []
        for node in module.walk():
            findings.extend(self._check_node(module, node, protected))
        return _dedupe_by_location(findings)

    def _check_node(
        self,
        module: ModuleUnderAnalysis,
        node: ast.AST,
        protected: set[str],
    ) -> list[Finding]:
        hits: list[Finding] = []

        def flag(target: ast.AST, what: str) -> None:
            hits.append(
                self.finding(
                    module,
                    target,
                    f"{what} of fingerprinted constant; model constants "
                    "may only change in experiments/calibration.py "
                    "together with a CALIBRATION_TAG bump",
                )
            )

        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets
                if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                base = _subscript_or_attr_base(target)
                if isinstance(target, ast.Name) and target.id in protected:
                    flag(target, "rebinding")
                elif base is not None and base in protected:
                    flag(target, "mutation")
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                base = _subscript_or_attr_base(target)
                if isinstance(target, ast.Name) and target.id in protected:
                    flag(target, "deletion")
                elif base is not None and base in protected:
                    flag(target, "deletion")
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in self._mutators
                and isinstance(func.value, ast.Name)
                and func.value.id in protected
            ):
                flag(node, f".{func.attr}() mutation")
        return hits


def _subscript_or_attr_base(node: ast.AST) -> str | None:
    """The root name of ``name[...]`` / ``name.attr`` targets, if any."""
    if isinstance(node, (ast.Subscript, ast.Attribute)) and isinstance(
        node.value, ast.Name
    ):
        return node.value.id
    return None


def _dedupe_by_location(findings: list[Finding]) -> list[Finding]:
    """Drop duplicate findings at one (line, col) (nested node matches)."""
    seen = set()
    unique = []
    for finding in findings:
        key = (finding.rule_id, finding.path, finding.line, finding.col)
        if key not in seen:
            seen.add(key)
            unique.append(finding)
    return unique


#: The per-module direct rules, in id order.  The full shipped set --
#: these plus the taint and concurrency families -- lives in
#: :mod:`repro.analysis.registry`.
DIRECT_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    WallClockRule(),
    BlasReductionRule(),
    EnvReadRule(),
    NondetAccumulationRule(),
    FingerprintMutationRule(),
)
