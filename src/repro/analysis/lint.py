"""``jawslint`` — whole-program determinism analysis for the codebase.

The reproduction's claims (workload-throughput ordering, gating-edge
deadlock freedom, two-level batching) are only checkable because the
discrete-event simulator is bit-for-bit deterministic under a seed.
This module statically enforces the coding rules that contract rests
on, using nothing but the stdlib :mod:`ast`.

Two layers share one driver (:func:`run_analysis`):

* **per-file rules** D001–D007 — single-pass AST checks, below;
* **whole-program rules** D100/D101 (RNG stream provenance), D200/D201
  (checkpoint state-capture completeness) and D300 (transitive
  parallel-worker purity), which run over a project model + call graph
  built from every ``repro.*`` module found under the linted paths —
  see :mod:`repro.analysis.project`, :mod:`repro.analysis.callgraph`
  and :mod:`repro.analysis.rules_interproc`.

Per-file rule table:

========  ==========================================================
rule      what it flags
========  ==========================================================
D001      wall-clock reads (``time.time``, ``time.perf_counter``,
          ``datetime.now`` …) — real time must never leak into
          simulation state; only the virtual clock may advance it.
D002      unseeded randomness (module-level ``random.*`` or
          ``numpy.random.*`` draws).  All randomness must flow
          through an explicitly seeded ``random.Random`` /
          ``numpy.random.default_rng`` instance.
D003      iteration order hazards: ``for … in`` over a ``set``
          literal/comprehension, ``set(…)``/``frozenset(…)`` call or
          ``.keys()`` view, and ``max(…items(), key=…)`` /
          ``min(…)`` whose key lambda lacks a total-order (tuple)
          tiebreak — both can silently reorder scheduling decisions.
D004      mutable default arguments (shared state across calls).
D005      float equality against the virtual clock (``clock ==``,
          ``now !=`` …) — exact float comparison of accumulated
          virtual times is never meaningful.
D006      *parallel-worker purity* (scoped to files under a
          ``parallel`` package): wall-clock reads (flagged on top of
          D001) and process-identity reads (``os.getpid``,
          ``threading.get_ident``, ``multiprocessing.
          current_process`` …).  Worker results must be pure
          functions of the pickled spec; anything derived from real
          time or worker identity could leak into ``RunResult``
          payloads and break parallel-vs-serial bit-identity.
D007      *fuzz seeding* (scoped to files under a ``fuzz`` package):
          a seedable RNG constructor called with no seed argument
          (``random.Random()``, ``np.random.default_rng()``), or any
          ``random.SystemRandom`` use.  D002 allows seedable
          constructors without inspecting their arguments; in
          scenario-builder code an accidentally unseeded instance
          silently breaks campaign reproducibility and shrinker
          replay, so the gap is closed here.
========  ==========================================================

Suppression: append ``# jawslint: disable=D003`` (comma-separate for
several rules, omit ``=…`` to disable all) to the flagged line, with a
comment saying *why* the construct is safe.  A file-wide escape hatch
``# jawslint: disable-file=D001`` exists for generated code.  Findings
that are properties of a whole symbol rather than a line (typical for
D100–D300) go in the checked-in baseline ledger instead
(:mod:`repro.analysis.baseline`; ``jawslint-baseline.json``), where
every entry must carry a written rationale.

Run as ``repro lint [paths…]`` or ``python -m repro.analysis.lint
src tests``; exits non-zero when violations remain.  ``--format
json|sarif`` emits a machine-readable report (including the analyzer's
own ``timing_s``, so CI can watch for runtime regressions); ``--out``
writes it to a file while keeping human-readable text on stdout.  The
rule corpus is exercised by ``tests/test_jawslint.py`` and
``tests/test_jawslint_interproc.py`` against good/bad fixture snippets,
and ``test_source_tree_is_clean`` keeps ``src/repro`` clean at HEAD.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "DEFAULT_BASELINE",
    "INTERPROC_RULES",
    "RULES",
    "AnalysisReport",
    "LintViolation",
    "lint_source",
    "lint_file",
    "lint_paths",
    "run_analysis",
    "main",
]

#: Rule id -> one-line description (the lint table in DESIGN.md §7).
RULES: Dict[str, str] = {
    "D001": "wall-clock read in simulation code (use the virtual clock)",
    "D002": "unseeded randomness (route through a seeded Random/Generator)",
    "D003": "unordered set/dict iteration feeding an ordering decision",
    "D004": "mutable default argument",
    "D005": "float equality comparison against the virtual clock",
    "D006": "wall-clock or process-identity read in parallel-worker code",
    "D007": "unseeded RNG construction in fuzz scenario code (pass an explicit seed)",
    "D100": "RNG draw on a stream owned by another subsystem",
    "D101": "seeded RNG stream handed across an engine/fault/fuzz scope boundary",
    "D200": "snapshot-participating attribute holds a statically-unpicklable value",
    "D201": "__setstate__ does not restore every attribute the class assigns",
    "D300": "impure call reachable from a parallel worker entry point",
}

#: Rules that need the whole-program project model (run by
#: :func:`run_analysis`, not by the per-file visitors).
INTERPROC_RULES = ("D100", "D101", "D200", "D201", "D300")

_WALL_CLOCK_TIME_FNS = frozenset(
    {
        "time",
        "time_ns",
        "monotonic",
        "monotonic_ns",
        "perf_counter",
        "perf_counter_ns",
        "process_time",
        "process_time_ns",
        "clock_gettime",
        "clock_gettime_ns",
    }
)
_WALL_CLOCK_DATETIME_FNS = frozenset({"now", "utcnow", "today"})

#: numpy.random members that construct *seedable* generators — allowed.
_NP_RANDOM_ALLOWED = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "MT19937",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "SFC64",
    }
)
#: stdlib random members that construct seedable instances — allowed.
_RANDOM_ALLOWED = frozenset({"Random", "SystemRandom"})

#: Fully-resolved call targets that read process/thread/host identity —
#: forbidden inside parallel-worker code (D006): any state derived from
#: them differs between the inline path and a pool worker.
_PROCESS_IDENTITY_FNS = frozenset(
    {
        "os.getpid",
        "os.getppid",
        "os.uname",
        "threading.get_ident",
        "threading.get_native_id",
        "threading.current_thread",
        "multiprocessing.current_process",
        "multiprocessing.parent_process",
        "socket.gethostname",
        "platform.node",
    }
)

_SUPPRESS_RE = re.compile(
    r"#\s*jawslint:\s*(disable-file|disable)(?:=([A-Za-z0-9,\s]+))?"
)

_CLOCK_NAMES = frozenset({"clock", "now", "sim_time", "virtual_time"})


@dataclass(frozen=True)
class LintViolation:
    """One lint finding.

    ``symbol`` is the enclosing dotted definition (``Class.method`` or
    ``function``; empty at module level) — the stable coordinate the
    baseline ledger matches on, so line-number churn never invalidates
    a recorded suppression.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    symbol: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": str(Path(self.path).as_posix()),
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "symbol": self.symbol,
            "message": self.message,
        }


def _parse_suppressions(source: str) -> Tuple[Dict[int, Optional[Set[str]]], Optional[Set[str]]]:
    """Extract per-line and file-wide rule suppressions.

    Returns ``(line -> rules-or-None, file_rules-or-None)`` where
    ``None`` as a rule set means "all rules".
    """
    per_line: Dict[int, Optional[Set[str]]] = {}
    file_wide: Optional[Set[str]] = None
    file_wide_all = False
    for lineno, text in enumerate(source.splitlines(), start=1):
        m = _SUPPRESS_RE.search(text)
        if m is None:
            continue
        kind, raw = m.group(1), m.group(2)
        rules: Optional[Set[str]] = None
        if raw is not None:
            rules = {r.strip().upper() for r in raw.split(",") if r.strip()}
        if kind == "disable":
            if rules is None or lineno not in per_line:
                per_line[lineno] = rules
            elif per_line[lineno] is not None:
                existing = per_line[lineno]
                assert existing is not None
                existing.update(rules)
        else:  # disable-file
            if rules is None:
                file_wide_all = True
            elif file_wide is None:
                file_wide = set(rules)
            else:
                file_wide.update(rules)
    if file_wide_all:
        file_wide = set(RULES)
    return per_line, file_wide


class _ImportTracker:
    """Resolve local names back to the dotted module path they alias."""

    def __init__(self) -> None:
        self._alias: Dict[str, str] = {}

    def visit_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._alias[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )

    def visit_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return  # relative imports never alias stdlib time/random
        for alias in node.names:
            self._alias[alias.asname or alias.name] = f"{node.module}.{alias.name}"

    def resolve(self, dotted: str) -> str:
        """Rewrite the first segment of ``dotted`` through the alias map."""
        head, _, rest = dotted.partition(".")
        origin = self._alias.get(head, head)
        return f"{origin}.{rest}" if rest else origin


def _is_parallel_scope(path: str) -> bool:
    """True when ``path`` lives inside a ``parallel`` package directory
    (the scope of rule D006)."""
    return "parallel" in Path(path).parts


def _is_fuzz_scope(path: str) -> bool:
    """True when ``path`` lives inside a ``fuzz`` package directory
    (the scope of rule D007)."""
    return "fuzz" in Path(path).parts


def _dotted_name(node: ast.expr) -> Optional[str]:
    """``a.b.c`` for Name/Attribute chains, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


class _Linter(ast.NodeVisitor):
    """Single-pass rule evaluation over one module's AST."""

    def __init__(self, path: str, imports: _ImportTracker) -> None:
        self.path = path
        self.imports = imports
        self.parallel_scope = _is_parallel_scope(path)
        self.fuzz_scope = _is_fuzz_scope(path)
        self.violations: List[LintViolation] = []
        self._scope: List[str] = []

    # -- plumbing -----------------------------------------------------------
    def _flag(self, node: ast.AST, rule: str, detail: str) -> None:
        self.violations.append(
            LintViolation(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                rule=rule,
                message=f"{RULES[rule]}: {detail}",
                symbol=".".join(self._scope),
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    # -- imports ------------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self.imports.visit_import(node)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imports.visit_import_from(node)
        self.generic_visit(node)

    # -- D001 / D002 / D003(b): call-shaped rules ---------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted_name(node.func)
        if dotted is not None:
            resolved = self.imports.resolve(dotted)
            self._check_wall_clock(node, resolved)
            self._check_randomness(node, resolved)
            self._check_minmax_items(node, resolved)
            self._check_parallel_purity(node, resolved)
            self._check_fuzz_seeding(node, resolved)
        self.generic_visit(node)

    @staticmethod
    def _is_wall_clock(resolved: str) -> bool:
        head, _, member = resolved.rpartition(".")
        if head == "time" and member in _WALL_CLOCK_TIME_FNS:
            return True
        return member in _WALL_CLOCK_DATETIME_FNS and head in (
            "datetime",
            "datetime.datetime",
            "datetime.date",
        )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if self._is_wall_clock(resolved):
            self._flag(node, "D001", f"call to {resolved}()")

    def _check_randomness(self, node: ast.Call, resolved: str) -> None:
        head, _, member = resolved.rpartition(".")
        if head == "random" and member not in _RANDOM_ALLOWED:
            self._flag(node, "D002", f"module-level random.{member}()")
        elif head in ("numpy.random", "np.random") and member not in _NP_RANDOM_ALLOWED:
            self._flag(node, "D002", f"module-level numpy.random.{member}()")

    def _check_minmax_items(self, node: ast.Call, resolved: str) -> None:
        if resolved not in ("max", "min", "sorted"):
            return
        feeds_items = any(
            self._is_items_or_values_call(arg) for arg in node.args
        )
        if not feeds_items:
            return
        key = next((kw.value for kw in node.keywords if kw.arg == "key"), None)
        if key is None:
            # Bare (key, value) tuple comparison: keys are unique, so
            # the ordering is already total.
            return
        if isinstance(key, ast.Lambda) and not isinstance(key.body, ast.Tuple):
            self._flag(
                node,
                "D003",
                f"{resolved}() over .items()/.values() with a scalar key "
                "lambda — add a total-order tiebreak (return a tuple)",
            )

    # -- D006: parallel-worker purity ----------------------------------------
    def _check_parallel_purity(self, node: ast.Call, resolved: str) -> None:
        if not self.parallel_scope:
            return
        if self._is_wall_clock(resolved):
            # Flagged alongside D001: in worker code a wall-clock read
            # is not just nondeterministic, it can differ per worker and
            # leak into RunResult payloads.
            self._flag(
                node,
                "D006",
                f"call to {resolved}() — worker results must not depend on "
                "real time",
            )
        elif resolved in _PROCESS_IDENTITY_FNS:
            self._flag(
                node,
                "D006",
                f"call to {resolved}() — worker results must not depend on "
                "process/thread identity",
            )

    # -- D007: fuzz scenario-builder seeding ----------------------------------
    def _check_fuzz_seeding(self, node: ast.Call, resolved: str) -> None:
        if not self.fuzz_scope:
            return
        if resolved == "random.SystemRandom":
            # OS entropy can never be seeded: in scenario code it is
            # unreproducible by construction, arguments or not.
            self._flag(
                node,
                "D007",
                "random.SystemRandom draws OS entropy — scenarios built from "
                "it cannot be replayed",
            )
            return
        seedable = resolved == "random.Random" or resolved in (
            "numpy.random.default_rng",
            "np.random.default_rng",
            "numpy.random.RandomState",
            "np.random.RandomState",
        )
        if seedable and not node.args and not node.keywords:
            self._flag(
                node,
                "D007",
                f"{resolved}() constructed without a seed — derive one from "
                "the scenario spec",
            )

    @staticmethod
    def _is_items_or_values_call(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("items", "values")
        )

    # -- D003(a): iteration over unordered collections ----------------------
    def visit_For(self, node: ast.For) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._check_unordered_iter(node.iter)
        self.generic_visit(node)

    def _check_unordered_iter(self, iter_node: ast.expr) -> None:
        if isinstance(iter_node, (ast.Set, ast.SetComp)):
            self._flag(iter_node, "D003", "iterating a set literal/comprehension")
            return
        if isinstance(iter_node, ast.Call):
            dotted = _dotted_name(iter_node.func)
            if dotted is not None and self.imports.resolve(dotted) in ("set", "frozenset"):
                self._flag(
                    iter_node,
                    "D003",
                    f"iterating {dotted}(...) — wrap in sorted(...)",
                )
            elif (
                isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr == "keys"
            ):
                self._flag(
                    iter_node,
                    "D003",
                    "iterating .keys() — iterate the dict directly (insertion "
                    "order) or wrap in sorted(...)",
                )

    # -- D004: mutable defaults ---------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()

    def _check_defaults(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        defaults: List[ast.expr] = [*node.args.defaults]
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ):
                self._flag(default, "D004", f"in def {node.name}(...)")
            elif isinstance(default, ast.Call):
                dotted = _dotted_name(default.func)
                if dotted in ("list", "dict", "set", "bytearray", "collections.deque", "deque"):
                    self._flag(default, "D004", f"in def {node.name}(...)")

    # -- D005: float == against the virtual clock ---------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            operands = [node.left, *node.comparators]
            for operand in operands:
                name = self._terminal_name(operand)
                if name is not None and (
                    name in _CLOCK_NAMES or name.endswith("_clock")
                ):
                    self._flag(
                        node,
                        "D005",
                        f"comparing {name!r} with ==/!= — use an ordering or "
                        "tolerance test",
                    )
                    break
        self.generic_visit(node)

    @staticmethod
    def _terminal_name(node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Attribute):
            return node.attr
        if isinstance(node, ast.Name):
            return node.id
        return None


def _filter_suppressed(
    violations: Iterable[LintViolation],
    per_line: Dict[int, Optional[Set[str]]],
    file_wide: Optional[Set[str]],
) -> List[LintViolation]:
    out: List[LintViolation] = []
    for violation in violations:
        if file_wide is not None and violation.rule in file_wide:
            continue
        if violation.line in per_line:
            rules = per_line[violation.line]
            if rules is None or violation.rule in rules:
                continue
        out.append(violation)
    return out


def lint_source(source: str, path: str = "<string>") -> List[LintViolation]:
    """Lint one module's source text; returns surviving violations."""
    tree = ast.parse(source, filename=path)
    linter = _Linter(path, _ImportTracker())
    linter.visit(tree)
    per_line, file_wide = _parse_suppressions(source)
    return _filter_suppressed(linter.violations, per_line, file_wide)


def lint_file(path: Path) -> List[LintViolation]:
    """Lint one file on disk."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [
            LintViolation(
                path=str(path), line=1, col=0, rule="E000", message=f"unreadable: {exc}"
            )
        ]
    try:
        return lint_source(source, str(path))
    except SyntaxError as exc:
        return [
            LintViolation(
                path=str(path),
                line=exc.lineno or 1,
                col=exc.offset or 0,
                rule="E000",
                message=f"syntax error: {exc.msg}",
            )
        ]


def _iter_python_files(paths: Iterable[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
                and not any(part.startswith(".") for part in p.parts)
            )
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: Sequence[str | Path]) -> List[LintViolation]:
    """Lint files and directory trees; returns all surviving violations
    in (path, line) order."""
    violations: List[LintViolation] = []
    for file_path in _iter_python_files(Path(p) for p in paths):
        violations.extend(lint_file(file_path))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations


# ---------------------------------------------------------------------------
# Whole-program analysis driver
# ---------------------------------------------------------------------------

#: Default ledger file, auto-loaded from the working directory when
#: present (see :mod:`repro.analysis.baseline`).
DEFAULT_BASELINE = "jawslint-baseline.json"


@dataclass
class AnalysisReport:
    """Everything one analyzer run produced, renderable as text, JSON
    or SARIF.  ``timing_s`` is part of the machine-readable output so
    CI trends catch analyzer-runtime regressions (the whole-tree run
    must stay under its 10 s budget)."""

    paths: List[str]
    violations: List[LintViolation]
    files: int
    timing_s: float
    interproc: bool
    baseline_path: Optional[str] = None
    baseline_suppressed: int = 0
    baseline_unused: List[Dict[str, str]] = field(default_factory=list)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "tool": "jawslint",
            "format_version": 1,
            "paths": self.paths,
            "interproc": self.interproc,
            "rules": dict(sorted(RULES.items())),
            "files": self.files,
            "timing_s": round(self.timing_s, 4),
            "violations": [v.to_json() for v in self.violations],
            "baseline": (
                None
                if self.baseline_path is None
                else {
                    "path": self.baseline_path,
                    "suppressed": self.baseline_suppressed,
                    "unused": self.baseline_unused,
                }
            ),
        }

    def to_sarif_dict(self) -> Dict[str, object]:
        """Minimal SARIF 2.1.0 document (one run, one result per
        violation) for code-scanning UIs."""
        rules = [
            {"id": rule, "shortDescription": {"text": description}}
            for rule, description in sorted(RULES.items())
        ]
        results = [
            {
                "ruleId": v.rule,
                "level": "error",
                "message": {"text": v.message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {
                                "uri": str(Path(v.path).as_posix())
                            },
                            "region": {
                                "startLine": v.line,
                                "startColumn": max(v.col, 0) + 1,
                            },
                        },
                        "logicalLocations": (
                            [{"fullyQualifiedName": v.symbol}] if v.symbol else []
                        ),
                    }
                ],
            }
            for v in self.violations
        ]
        return {
            "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
            "version": "2.1.0",
            "runs": [
                {
                    "tool": {
                        "driver": {
                            "name": "jawslint",
                            "informationUri": "https://example.invalid/jawslint",
                            "rules": rules,
                        }
                    },
                    "results": results,
                    "properties": {
                        "timing_s": round(self.timing_s, 4),
                        "files": self.files,
                    },
                }
            ],
        }


def _suppress_interproc(violations: List[LintViolation]) -> List[LintViolation]:
    """Apply each file's inline ``# jawslint: disable`` pragmas to
    whole-program findings (the interprocedural passes see ASTs, not
    comments)."""
    by_path: Dict[str, List[LintViolation]] = {}
    for violation in violations:
        by_path.setdefault(violation.path, []).append(violation)
    out: List[LintViolation] = []
    for path, group in by_path.items():
        try:
            source = Path(path).read_text(encoding="utf-8")
        except OSError:
            out.extend(group)
            continue
        per_line, file_wide = _parse_suppressions(source)
        out.extend(_filter_suppressed(group, per_line, file_wide))
    return out


def run_analysis(
    paths: Sequence[str | Path],
    *,
    interproc: bool = True,
    baseline: Optional["object"] = None,
    interproc_config: Optional["object"] = None,
) -> AnalysisReport:
    """Run the per-file rules and (optionally) the whole-program passes
    over ``paths``, apply inline suppressions and the baseline ledger,
    and return the full report.

    ``baseline`` is a :class:`repro.analysis.baseline.Baseline`;
    ``interproc_config`` a :class:`repro.analysis.rules_interproc.
    InterprocConfig` (both typed loosely here to keep this module
    import-light for the common per-file path).
    """
    import time as _time  # local so per-file users never pay the import

    t0 = _time.perf_counter()  # jawslint: disable=D001 - analyzer self-timing, never enters simulation state
    path_objs = [Path(p) for p in paths]
    files = sum(1 for _ in _iter_python_files(path_objs))
    violations = lint_paths(paths)
    if interproc:
        from repro.analysis.project import ProjectModel
        from repro.analysis.rules_interproc import InterprocConfig, run_interproc

        model = ProjectModel.from_paths(path_objs)
        config = interproc_config if interproc_config is not None else InterprocConfig()
        raw = run_interproc(model, config)  # type: ignore[arg-type]
        violations.extend(_suppress_interproc(raw))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    report = AnalysisReport(
        paths=[str(p) for p in paths],
        violations=violations,
        files=files,
        timing_s=0.0,
        interproc=interproc,
    )
    if baseline is not None:
        surviving, suppressed, unused = baseline.apply(violations)  # type: ignore[attr-defined]
        report.violations = surviving
        report.baseline_path = baseline.path  # type: ignore[attr-defined]
        report.baseline_suppressed = suppressed
        report.baseline_unused = [
            {"rule": e.rule, "path": e.path, "symbol": e.symbol} for e in unused
        ]
    report.timing_s = _time.perf_counter() - t0  # jawslint: disable=D001 - analyzer self-timing, never enters simulation state
    return report


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: ``python -m repro.analysis.lint [paths…]``."""
    import argparse
    import json

    parser = argparse.ArgumentParser(
        prog="jawslint",
        description="whole-program determinism analysis for the JAWS codebase",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"], help="files or directories (default: src)"
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule table and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        dest="fmt",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the --format report to PATH (stdout keeps the text render)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"suppression baseline ledger (default: ./{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline ledger, report every finding",
    )
    parser.add_argument(
        "--no-interproc",
        action="store_true",
        help="per-file rules only (skip the D100/D200/D300 whole-program passes)",
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, description in sorted(RULES.items()):
            print(f"{rule}  {description}")
        return 0
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        print(f"jawslint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    baseline = None
    if not args.no_baseline:
        baseline_path: Optional[Path] = None
        if args.baseline is not None:
            baseline_path = Path(args.baseline)
        elif Path(DEFAULT_BASELINE).is_file():
            baseline_path = Path(DEFAULT_BASELINE)
        if baseline_path is not None:
            from repro.analysis.baseline import Baseline, BaselineError

            try:
                baseline = Baseline.load(baseline_path)
            except BaselineError as exc:
                print(f"jawslint: {exc}", file=sys.stderr)
                return 2

    report = run_analysis(
        args.paths, interproc=not args.no_interproc, baseline=baseline
    )

    if args.fmt == "json":
        rendered = json.dumps(report.to_json_dict(), indent=2, sort_keys=True)
    elif args.fmt == "sarif":
        rendered = json.dumps(report.to_sarif_dict(), indent=2, sort_keys=True)
    else:
        rendered = None
    if args.out is not None:
        if rendered is None:
            rendered = "\n".join(v.render() for v in report.violations)
        Path(args.out).write_text(rendered + "\n" if rendered else "")
        for violation in report.violations:
            print(violation.render())
    elif rendered is not None:
        print(rendered)
    else:
        for violation in report.violations:
            print(violation.render())

    for entry in report.baseline_unused:
        print(
            "jawslint: unused baseline entry: "
            f"{entry['rule']} {entry['path']} {entry['symbol']}",
            file=sys.stderr,
        )
    if report.violations:
        print(f"jawslint: {len(report.violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
