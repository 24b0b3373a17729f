"""Conservative call graph over a :class:`~repro.analysis.project.ProjectModel`.

The graph drives reachability questions the interprocedural rules ask —
most importantly D300: *which functions can a parallel worker entry
point reach?*  For a purity analysis the graph must **over**-approximate:
a missed edge silently exempts impure code, while a spurious edge at
worst flags a line that then needs an (auditable) suppression.  Edges:

* direct calls to module-level functions, resolved through each
  module's import aliases (``run_trace(...)``, ``runner.run_trace(...)``,
  ``from … import run_trace``);
* ``self.method(...)`` → the method on the enclosing class or any of
  its project base classes;
* ``ClassName(...)`` → ``ClassName.__init__`` (instantiation runs it);
* **dynamic dispatch by method name**: ``obj.method(...)`` on a
  receiver of unknown static type adds edges to *every* project class
  method of that name.  This is the deliberate over-approximation that
  lets the closure follow ``node.scheduler.next_batch()`` into every
  scheduler implementation without type inference;
* **hoisted bound methods**: a local bound to ``<expr>.method``
  (``access = self.cache.access`` … ``access(...)``) is dispatched on
  ``method`` the same way, so hoisting a lookup out of a loop never
  drops the call edge.

Builtin/stdlib attribute calls (``list.append``, ``dict.get`` …) only
produce edges when a project class happens to define a method of the
same name — harmless for purity, since the rule only fires on functions
that actually contain an impure read.
"""

from __future__ import annotations

import ast
from collections import deque
from typing import Dict, List, Optional, Set

from repro.analysis.project import FunctionInfo, ProjectModel, dotted_name

__all__ = ["CallGraph", "build_call_graph"]


class CallGraph:
    """Qualname → callee-qualname adjacency with reachability helpers."""

    def __init__(self) -> None:
        self.edges: Dict[str, Set[str]] = {}

    def add_edge(self, caller: str, callee: str) -> None:
        self.edges.setdefault(caller, set()).add(callee)

    def callees(self, qualname: str) -> Set[str]:
        return self.edges.get(qualname, set())

    def reachable_from(self, entries: List[str]) -> Set[str]:
        """Every qualname reachable from ``entries`` (inclusive), via a
        deterministic breadth-first sweep."""
        seen: Set[str] = set()
        queue = deque(sorted(entries))
        while queue:
            current = queue.popleft()
            if current in seen:
                continue
            seen.add(current)
            queue.extend(sorted(self.callees(current) - seen))
        return seen

    def shortest_path(self, entries: List[str], target: str) -> List[str]:
        """One shortest entry→target call chain (for diagnostics);
        empty when unreachable.  Deterministic: neighbors expand in
        sorted order."""
        parents: Dict[str, Optional[str]] = {e: None for e in sorted(entries)}
        queue = deque(sorted(entries))
        while queue:
            current = queue.popleft()
            if current == target:
                path: List[str] = []
                walk: Optional[str] = current
                while walk is not None:
                    path.append(walk)
                    walk = parents[walk]
                return list(reversed(path))
            for callee in sorted(self.callees(current)):
                if callee not in parents:
                    parents[callee] = current
                    queue.append(callee)
        return []


def _method_on_class_or_bases(
    model: ProjectModel, class_name: Optional[str], module: str, method: str
) -> Optional[FunctionInfo]:
    """Look up ``self.<method>`` on the enclosing class, walking project
    base classes (single pass, no MRO subtleties needed for analysis)."""
    if class_name is None:
        return None
    cls = model.resolve_class(module, class_name)
    seen: Set[str] = set()
    while cls is not None and cls.qualname not in seen:
        seen.add(cls.qualname)
        if method in cls.methods:
            return cls.methods[method]
        next_cls = None
        for base in cls.bases:
            resolved = model.resolve_class(cls.module, base)
            if resolved is not None:
                next_cls = resolved
                break
        cls = next_cls
    return None


def _bound_attrs(fn: FunctionInfo) -> Dict[str, str]:
    """Local names bound to an attribute (``name = <expr>.attr``, also
    element-wise in tuple assignments) → the attribute names, per
    function.  A name bound more than once keeps its last binding; the
    dynamic dispatch it feeds is name-based anyway."""
    bound: Dict[str, str] = {}
    for node in ast.walk(fn.node):
        if isinstance(node, ast.Assign):
            pairs = [(target, node.value) for target in node.targets]
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            pairs = [(node.target, node.value)]
        else:
            continue
        while pairs:
            target, value = pairs.pop()
            if isinstance(target, ast.Name) and isinstance(value, ast.Attribute):
                bound[target.id] = value.attr
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(value, ast.Tuple)
                and len(target.elts) == len(value.elts)
            ):
                pairs.extend(zip(target.elts, value.elts))
    return bound


def _edges_for_call(
    model: ProjectModel,
    fn: FunctionInfo,
    call: ast.Call,
    bound: Optional[Dict[str, str]] = None,
) -> List[str]:
    """Resolve one call site to zero or more callee qualnames.

    ``bound`` maps the caller's hoisted bound-method locals to their
    attribute names (see :func:`_bound_attrs`)."""
    out: List[str] = []
    mod = model.modules.get(fn.module)
    func = call.func
    dotted = dotted_name(func)

    if dotted is not None and dotted.startswith("self."):
        rest = dotted.split(".")
        if len(rest) == 2:  # self.method(...)
            target = _method_on_class_or_bases(model, fn.class_name, fn.module, rest[1])
            if target is not None:
                return [target.qualname]
        # self.attr.method(...) falls through to dynamic dispatch below.
    elif dotted is not None:
        resolved = mod.imports.resolve(dotted) if mod is not None else dotted
        # Module-level function in the same module.
        if mod is not None and dotted in mod.functions:
            return [mod.functions[dotted].qualname]
        # Class instantiation (local, imported, or unique-by-name).
        cls = model.resolve_class(fn.module, dotted)
        if cls is not None:
            if "__init__" in cls.methods:
                return [cls.methods["__init__"].qualname]
            return [cls.qualname]  # attribute-less ctor still marks the class
        # Fully-resolved project function (import-from or dotted access).
        if resolved in model.functions:
            return [model.functions[resolved].qualname]
        tail = resolved.rsplit(".", 1)[-1]
        if "." in resolved:
            # `pkg.mod.func` where only `mod` is in the model.
            head = resolved.rsplit(".", 1)[0]
            target_mod = model.modules.get(head)
            if target_mod is not None and tail in target_mod.functions:
                return [target_mod.functions[tail].qualname]

    # Dynamic dispatch: attribute call on an unknown receiver, directly
    # or through a local the attribute was hoisted into.
    method: Optional[str] = None
    if isinstance(func, ast.Attribute):
        method = func.attr
    elif isinstance(func, ast.Name) and bound:
        method = bound.get(func.id)
    if method is not None:
        for candidate in model.methods_named(method):
            out.append(candidate.qualname)
    return out


def build_call_graph(model: ProjectModel) -> CallGraph:
    """Build the conservative call graph for every function in the model."""
    graph = CallGraph()
    for fn in model.iter_functions():
        bound = _bound_attrs(fn)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            for callee in _edges_for_call(model, fn, node, bound):
                if callee != fn.qualname:
                    graph.add_edge(fn.qualname, callee)
    return graph
