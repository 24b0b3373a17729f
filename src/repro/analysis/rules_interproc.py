"""Interprocedural determinism rules (the D100/D200/D300 families).

Three whole-program passes over a :class:`~repro.analysis.project.
ProjectModel` + :class:`~repro.analysis.callgraph.CallGraph`, each
closing a gap that per-file lint (D001–D007) structurally cannot see:

========  ==========================================================
rule      what it flags
========  ==========================================================
D100      *RNG stream provenance* — a draw (``.random()``,
          ``.integers()`` …) on a seeded ``Random``/``Generator``
          stream from a subsystem other than the one that
          constructed it.  Streams are tracked from their
          construction site through ``self.attr`` storage and
          function parameters (argument flow over the call graph);
          cross-subsystem draws interleave two subsystems' draw
          sequences on one stream — a determinism race under
          refactoring.
D101      a seeded RNG stream handed across the engine/fault/fuzz
          *scope-family* boundary as a call argument.  Each family
          owns its streams end to end (DESIGN.md §7); sharing one
          stream across families couples their replay.
D200      *checkpoint state-capture completeness* — an attribute of a
          snapshot-participating class assigned a statically
          unpicklable value (lambda, generator expression, open
          file, lock, frame).  Participation is the closure of the
          snapshot roots (``Simulator``) over inferred attribute
          types, plus every class opting into pickling via
          ``__getstate__``/``__setstate__``.
D201      a class with an explicit (non-``__dict__``-copy)
          ``__getstate__``/``__setstate__`` pair whose
          ``__setstate__`` does not restore every attribute the
          class assigns elsewhere — the static analogue of the PR 3
          BPlusTree bug ("new engine attribute silently dropped by
          resume").
D300      *transitive parallel-worker purity* — D006 extended from
          file scope to the call-graph closure of the
          ``repro.parallel`` worker entry points: any reachable
          wall-clock read, process-identity read, or module-level
          (unseeded) RNG draw, with one example call chain in the
          message.
========  ==========================================================

All passes are syntactic and conservative; intentional exceptions are
suppressed inline (``# jawslint: disable=D300 - why``) or recorded in
the baseline ledger (:mod:`repro.analysis.baseline`) with a rationale.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.callgraph import CallGraph, build_call_graph
from repro.analysis.lint import (
    _NP_RANDOM_ALLOWED,
    _PROCESS_IDENTITY_FNS,
    _RANDOM_ALLOWED,
    _WALL_CLOCK_DATETIME_FNS,
    _WALL_CLOCK_TIME_FNS,
    LintViolation,
    RULES,
)
from repro.analysis.project import (
    AttrAssign,
    ClassInfo,
    FunctionInfo,
    ModuleInfo,
    ProjectModel,
    dotted_name,
    scope_family,
    subsystem_of,
)

__all__ = ["InterprocConfig", "run_interproc"]


@dataclass(frozen=True)
class InterprocConfig:
    """Tunables for the whole-program passes (tests override these to
    point the analyzer at fixture trees)."""

    #: Classes whose instances are captured wholesale into checkpoint
    #: snapshots (``CheckpointManager._capture_state`` hands ``vars(sim)``
    #: to one pickle; the trace's objects and the disk B+-trees in it go
    #: by reference into the directory's ``input.ckpt``, itself one pickle
    #: of them); the D200 participant set is their closure.
    snapshot_roots: Tuple[str, ...] = ("repro.engine.simulator.Simulator",)

    #: (class qualname, attribute) pairs excluded from snapshot capture.
    #: Must mirror the exclusions in
    #: :func:`repro.recovery.checkpoint._capture_state` — the manager
    #: holds open file handles and is rebuilt on restore.
    snapshot_excluded_attrs: FrozenSet[Tuple[str, str]] = frozenset(
        {("repro.engine.simulator.Simulator", "_checkpointer")}
    )

    #: Subsystems whose functions are parallel-worker entry points
    #: (D300 closes over everything they can reach).
    worker_subsystems: Tuple[str, ...] = ("parallel",)


# --------------------------------------------------------------------------
# Shared helpers
# --------------------------------------------------------------------------

#: Fully-resolved constructors that create an RNG stream object.
_RNG_CTORS = frozenset(
    {
        "random.Random",
        "random.SystemRandom",
        "numpy.random.default_rng",
        "np.random.default_rng",
        "numpy.random.RandomState",
        "np.random.RandomState",
        "numpy.random.Generator",
        "np.random.Generator",
    }
)

#: Methods that consume entropy from a stream (stdlib + numpy).
_DRAW_METHODS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "triangular",
        "choice",
        "choices",
        "sample",
        "shuffle",
        "gauss",
        "normalvariate",
        "lognormvariate",
        "expovariate",
        "vonmisesvariate",
        "gammavariate",
        "betavariate",
        "paretovariate",
        "weibullvariate",
        "getrandbits",
        "integers",
        "standard_normal",
        "normal",
        "poisson",
        "exponential",
        "permutation",
        "permuted",
        "rand",
        "randn",
    }
)

_LOCK_CTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Barrier",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "multiprocessing.Condition",
        "multiprocessing.Event",
        "multiprocessing.Semaphore",
        "multiprocessing.Queue",
    }
)

_FRAME_FNS = frozenset({"sys._getframe", "inspect.currentframe"})


def _resolved_call_name(mod: Optional[ModuleInfo], call: ast.Call) -> Optional[str]:
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    return mod.imports.resolve(dotted) if mod is not None else dotted


def _is_rng_ctor(mod: Optional[ModuleInfo], expr: ast.expr) -> bool:
    if isinstance(expr, ast.IfExp):
        return _is_rng_ctor(mod, expr.body) or _is_rng_ctor(mod, expr.orelse)
    if not isinstance(expr, ast.Call):
        return False
    resolved = _resolved_call_name(mod, expr)
    return resolved in _RNG_CTORS


def _is_wall_clock(resolved: str) -> bool:
    head, _, member = resolved.rpartition(".")
    if head == "time" and member in _WALL_CLOCK_TIME_FNS:
        return True
    return member in _WALL_CLOCK_DATETIME_FNS and head in (
        "datetime",
        "datetime.datetime",
        "datetime.date",
    )


def _is_unseeded_random(resolved: str) -> bool:
    head, _, member = resolved.rpartition(".")
    if head == "random" and member not in _RANDOM_ALLOWED:
        return True
    return head in ("numpy.random", "np.random") and member not in _NP_RANDOM_ALLOWED


def _symbol_of(fn: FunctionInfo) -> str:
    prefix = fn.module + "."
    if fn.qualname.startswith(prefix):
        return fn.qualname[len(prefix):]
    return fn.qualname


def _flag(
    out: List[LintViolation],
    mod: ModuleInfo,
    node: ast.AST,
    rule: str,
    detail: str,
    symbol: str,
) -> None:
    out.append(
        LintViolation(
            path=mod.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=f"{RULES[rule]}: {detail}",
            symbol=symbol,
        )
    )


# --------------------------------------------------------------------------
# D100 / D101 — RNG stream provenance
# --------------------------------------------------------------------------


@dataclass
class _RngRegistry:
    """Where every tracked RNG stream lives and which module owns it."""

    #: (class qualname, attribute name) -> owning module
    attrs: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: attribute name -> set of owning modules (for untyped receivers)
    attr_owners: Dict[str, Set[str]] = field(default_factory=dict)
    #: (module, global name) -> owning module
    globals: Dict[Tuple[str, str], str] = field(default_factory=dict)
    #: (function qualname, parameter name) -> owning module, bound from
    #: call-site argument flow
    params: Dict[Tuple[str, str], str] = field(default_factory=dict)


def _collect_rng_registry(model: ProjectModel) -> _RngRegistry:
    reg = _RngRegistry()
    for mod in model.modules.values():
        # Module-level streams.
        for node in mod.tree.body:
            if isinstance(node, ast.Assign) and _is_rng_ctor(mod, node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        reg.globals[(mod.name, target.id)] = mod.name
        # self.<attr> = <rng ctor> anywhere in any method.
        for cls in mod.classes.values():
            for assign in cls.attr_assigns:
                if assign.value is not None and _is_rng_ctor(mod, assign.value):
                    reg.attrs[(cls.qualname, assign.name)] = mod.name
                    reg.attr_owners.setdefault(assign.name, set()).add(mod.name)
    return reg


def _local_rng_vars(mod: ModuleInfo, fn: FunctionInfo) -> Set[str]:
    out: Set[str] = set()
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign) and _is_rng_ctor(mod, node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    out.add(target.id)
    return out


def _param_names(fn: FunctionInfo) -> List[str]:
    args = fn.node.args
    names = [a.arg for a in args.posonlyargs] + [a.arg for a in args.args]
    names += [a.arg for a in args.kwonlyargs]
    return names


def _rng_ref_owner(
    reg: _RngRegistry,
    mod: ModuleInfo,
    fn: FunctionInfo,
    local_rngs: Set[str],
    expr: ast.expr,
) -> Optional[str]:
    """Owning module of the stream ``expr`` refers to, or ``None``."""
    name = dotted_name(expr)
    if name is None:
        return None
    if "." not in name:
        if name in local_rngs:
            return mod.name
        if (mod.name, name) in reg.globals:
            return mod.name
        if (fn.qualname, name) in reg.params:
            return reg.params[(fn.qualname, name)]
        return None
    parts = name.split(".")
    if parts[0] == "self" and len(parts) == 2 and fn.class_name is not None:
        key = (f"{mod.name}.{fn.class_name}", parts[1])
        if key in reg.attrs:
            return reg.attrs[key]
    # Fall back to the terminal attribute name when it identifies a
    # unique owning module across the whole project.
    owners = reg.attr_owners.get(parts[-1], set())
    if len(owners) == 1:
        return next(iter(owners))
    return None


def _precise_callee(
    model: ProjectModel, fn: FunctionInfo, call: ast.Call
) -> Optional[FunctionInfo]:
    """Resolve a call site to exactly one project function (no dynamic
    dispatch) — required before binding arguments to parameters."""
    mod = model.modules.get(fn.module)
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    if dotted.startswith("self.") and dotted.count(".") == 1:
        if fn.class_name is not None:
            cls = model.resolve_class(fn.module, fn.class_name)
            if cls is not None and dotted[5:] in cls.methods:
                return cls.methods[dotted[5:]]
        return None
    if mod is not None and dotted in mod.functions:
        return mod.functions[dotted]
    resolved = mod.imports.resolve(dotted) if mod is not None else dotted
    if resolved in model.functions:
        return model.functions[resolved]
    cls = model.resolve_class(fn.module, dotted)
    if cls is not None and "__init__" in cls.methods:
        return cls.methods["__init__"]
    if "." in resolved:
        head, _, tail = resolved.rpartition(".")
        target_mod = model.modules.get(head)
        if target_mod is not None and tail in target_mod.functions:
            return target_mod.functions[tail]
    return None


def _bind_param_provenance(
    model: ProjectModel, reg: _RngRegistry, violations: List[LintViolation]
) -> None:
    """Flow RNG references through call arguments: fills ``reg.params``
    and raises D101 when a stream crosses a scope-family boundary.

    One fixed-point-free pass is enough for the codebase's one-hop
    hand-off patterns (constructor → attribute → helper); deeper chains
    would need iteration, which conservatively we skip."""
    for fn in sorted(model.iter_functions(), key=lambda f: f.qualname):
        mod = model.modules.get(fn.module)
        if mod is None:
            continue
        local_rngs = _local_rng_vars(mod, fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            callee = _precise_callee(model, fn, node)
            if callee is None:
                continue
            params = _param_names(callee)
            if params and params[0] == "self" and callee.class_name is not None:
                params = params[1:]
            bindings: List[Tuple[str, ast.expr]] = []
            for index, arg in enumerate(node.args):
                if index < len(params):
                    bindings.append((params[index], arg))
            for keyword in node.keywords:
                if keyword.arg is not None:
                    bindings.append((keyword.arg, keyword.value))
            for param, arg in bindings:
                owner = _rng_ref_owner(reg, mod, fn, local_rngs, arg)
                if owner is None:
                    continue
                reg.params[(callee.qualname, param)] = owner
                owner_scope = scope_family(owner)
                callee_scope = scope_family(callee.module)
                if owner_scope != callee_scope:
                    _flag(
                        violations,
                        mod,
                        node,
                        "D101",
                        f"stream constructed in {owner} ({owner_scope} scope) "
                        f"passed to {callee.qualname}() ({callee_scope} scope)",
                        _symbol_of(fn),
                    )


def _check_rng_draws(
    model: ProjectModel, reg: _RngRegistry, violations: List[LintViolation]
) -> None:
    for fn in sorted(model.iter_functions(), key=lambda f: f.qualname):
        mod = model.modules.get(fn.module)
        if mod is None:
            continue
        local_rngs = _local_rng_vars(mod, fn)
        here = subsystem_of(mod.name)
        for node in ast.walk(fn.node):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _DRAW_METHODS
            ):
                continue
            owner = _rng_ref_owner(reg, mod, fn, local_rngs, node.func.value)
            if owner is None or subsystem_of(owner) == here:
                continue
            _flag(
                violations,
                mod,
                node,
                "D100",
                f".{node.func.attr}() on a stream owned by {owner} "
                f"(subsystem '{subsystem_of(owner)}') from subsystem "
                f"'{here}' — draws interleave across subsystems",
                _symbol_of(fn),
            )


# --------------------------------------------------------------------------
# D200 / D201 — checkpoint state-capture completeness
# --------------------------------------------------------------------------


def _annotation_class(
    model: ProjectModel, mod: ModuleInfo, annotation: Optional[ast.expr]
) -> Optional[ClassInfo]:
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        return model.resolve_class(mod.name, annotation.value.strip("'\""))
    name = dotted_name(annotation)
    if name is None:
        return None
    return model.resolve_class(mod.name, name)


def _attr_type_edges(
    model: ProjectModel, cls: ClassInfo
) -> List[Tuple[str, ClassInfo]]:
    """(attribute, target class) edges inferred from constructor calls
    in assignment RHSs and from stored constructor parameters with
    resolvable annotations."""
    mod = model.modules.get(cls.module)
    if mod is None:
        return []
    edges: List[Tuple[str, ClassInfo]] = []
    init = cls.methods.get("__init__")
    param_types: Dict[str, ClassInfo] = {}
    if init is not None:
        args = init.node.args
        for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
            target = _annotation_class(model, mod, arg.annotation)
            if target is not None:
                param_types[arg.arg] = target
    for assign in cls.attr_assigns:
        if assign.value is None:
            continue
        if isinstance(assign.value, ast.Name) and assign.value.id in param_types:
            edges.append((assign.name, param_types[assign.value.id]))
            continue
        for sub in ast.walk(assign.value):
            if not isinstance(sub, ast.Call):
                continue
            name = dotted_name(sub.func)
            if name is None or name.startswith("self."):
                continue
            target = model.resolve_class(cls.module, name)
            if target is not None:
                edges.append((assign.name, target))
    return edges


def _snapshot_participants(
    model: ProjectModel, config: InterprocConfig
) -> Dict[str, ClassInfo]:
    """Closure of the snapshot roots over attribute-type edges, plus
    every class opting into pickling, plus subclasses of participants
    (a subclass instance can sit wherever its base does)."""
    participants: Dict[str, ClassInfo] = {}
    queue: List[ClassInfo] = []
    for root in config.snapshot_roots:
        cls = model.classes.get(root)
        if cls is not None:
            queue.append(cls)
    for cls in model.classes.values():
        if cls.has_getstate or cls.has_setstate:
            queue.append(cls)
    while queue:
        cls = queue.pop()
        if cls.qualname in participants:
            continue
        participants[cls.qualname] = cls
        for attr, target in _attr_type_edges(model, cls):
            if (cls.qualname, attr) in config.snapshot_excluded_attrs:
                continue
            queue.append(target)
        queue.extend(model.subclasses_of(cls))
    return participants


def _unpicklable_kind(mod: ModuleInfo, expr: ast.expr) -> Optional[str]:
    """A human-readable label when ``expr`` is statically unpicklable."""
    if isinstance(expr, ast.Lambda):
        return "a lambda"
    if isinstance(expr, ast.GeneratorExp):
        return "a generator expression"
    if isinstance(expr, ast.IfExp):
        return _unpicklable_kind(mod, expr.body) or _unpicklable_kind(mod, expr.orelse)
    if isinstance(expr, ast.BoolOp):
        for value in expr.values:
            kind = _unpicklable_kind(mod, value)
            if kind is not None:
                return kind
        return None
    if isinstance(expr, ast.Call):
        if isinstance(expr.func, ast.Attribute) and expr.func.attr == "open":
            return "an open file handle"
        resolved = _resolved_call_name(mod, expr)
        if resolved is None:
            return None
        if resolved in ("open", "io.open"):
            return "an open file handle"
        if resolved in _LOCK_CTORS:
            return f"a {resolved} synchronization primitive"
        if resolved == "socket.socket":
            return "a socket"
        if resolved in _FRAME_FNS:
            return "a bound frame"
    return None


def _check_snapshot_classes(
    model: ProjectModel, config: InterprocConfig, violations: List[LintViolation]
) -> None:
    participants = _snapshot_participants(model, config)
    for qualname in sorted(participants):
        cls = participants[qualname]
        mod = model.modules.get(cls.module)
        if mod is None:
            continue
        curated = cls.has_getstate
        if not curated:
            # D200: every assigned value must be statically picklable.
            for assign in cls.attr_assigns:
                if assign.value is None:
                    continue
                if (cls.qualname, assign.name) in config.snapshot_excluded_attrs:
                    continue
                kind = _unpicklable_kind(mod, assign.value)
                if kind is not None:
                    _flag(
                        violations,
                        mod,
                        assign.value,
                        "D200",
                        f"attribute '{assign.name}' of snapshot-participating "
                        f"class {cls.name} holds {kind} — checkpoint capture "
                        "will fail (or silently drop state) at the next "
                        "snapshot",
                        f"{cls.name}.{assign.method}",
                    )
        elif cls.has_setstate and not cls.getstate_is_dict_copy():
            # D201: explicit state codec must restore every attribute.
            restored = set(cls.attrs_assigned_in("__setstate__"))
            inventory = cls.attrs_assigned_outside("__setstate__", "__getstate__")
            for attr in sorted(set(inventory) - restored):
                assign = inventory[attr]
                if (cls.qualname, attr) in config.snapshot_excluded_attrs:
                    continue
                _flag(
                    violations,
                    mod,
                    assign.value if assign.value is not None else cls.node,
                    "D201",
                    f"attribute '{attr}' of {cls.name} (assigned in "
                    f"{assign.method}) is never restored by __setstate__ — "
                    "crash/resume silently drops it",
                    f"{cls.name}.{assign.method}",
                )


# --------------------------------------------------------------------------
# D300 — transitive parallel-worker purity
# --------------------------------------------------------------------------


def _render_chain(entries: List[str], graph: CallGraph, target: str) -> str:
    path = graph.shortest_path(entries, target)
    if not path:
        return target
    shown = [p.rsplit(".", 2)[-1] if p.count(".") > 2 else p for p in path]
    if len(shown) > 6:
        shown = shown[:3] + ["…"] + shown[-2:]
    return " -> ".join(shown)


def _check_worker_purity(
    model: ProjectModel,
    graph: CallGraph,
    config: InterprocConfig,
    violations: List[LintViolation],
) -> None:
    entries = sorted(
        fn.qualname
        for fn in model.iter_functions()
        if subsystem_of(fn.module) in config.worker_subsystems
    )
    if not entries:
        return
    closure = graph.reachable_from(entries)
    for qualname in sorted(closure):
        fn = model.functions.get(qualname)
        if fn is None:
            continue
        mod = model.modules.get(fn.module)
        if mod is None:
            continue
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            resolved = mod.imports.resolve(dotted)
            impurity: Optional[str] = None
            if _is_wall_clock(resolved):
                impurity = f"wall-clock read {resolved}()"
            elif resolved in _PROCESS_IDENTITY_FNS:
                impurity = f"process-identity read {resolved}()"
            elif _is_unseeded_random(resolved):
                impurity = f"module-level RNG draw {resolved}()"
            if impurity is None:
                continue
            _flag(
                violations,
                mod,
                node,
                "D300",
                f"{impurity} is reachable from a parallel worker entry "
                f"point via {_render_chain(entries, graph, qualname)}",
                _symbol_of(fn),
            )


# --------------------------------------------------------------------------
# Entry point
# --------------------------------------------------------------------------


def run_interproc(
    model: ProjectModel, config: Optional[InterprocConfig] = None
) -> List[LintViolation]:
    """Run every whole-program pass over ``model``; returns raw
    violations (inline suppressions and the baseline ledger are applied
    by the caller, :func:`repro.analysis.lint.run_analysis`)."""
    cfg = config or InterprocConfig()
    violations: List[LintViolation] = []

    registry = _collect_rng_registry(model)
    _bind_param_provenance(model, registry, violations)
    _check_rng_draws(model, registry, violations)

    _check_snapshot_classes(model, cfg, violations)

    graph = build_call_graph(model)
    _check_worker_purity(model, graph, cfg, violations)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
