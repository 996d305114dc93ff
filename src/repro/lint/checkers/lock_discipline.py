"""``lock-discipline``: locked state stays locked, even through helpers.

The metric registry and tracer are the only objects in the stack shared
between the asyncio dispatcher and worker threads (``run_in_executor``
lands backend compute off-loop, and exporters read counters from HTTP
threads).  Their mutable state — ``Metric._values``, series maps, the
tracer ring — is documented as guarded by ``self._lock``; the PR 9
``ServeStats`` counter race was exactly a write that drifted out of its
lock.  This rule proves the discipline statically, per class hierarchy:

* a class participates when it (or a project-resolved base) assigns
  ``self._lock``;
* an attribute is **guarded** when some method outside ``__init__``
  mutates it inside ``with self._lock:`` — in the class that assigns the
  lock or in any class below it, siblings included (``Gauge.inc``
  locking ``_values`` guards ``Counter._values`` too) — the code's own
  locking is the spec, no annotations needed;
* every other mutation of a guarded attribute must also be inside
  ``with self._lock:``, *unless* the call graph proves the enclosing
  method is a private helper whose every known call site already holds
  the lock (directly, or transitively through other always-locked
  helpers).  A public method, a helper with an unlocked caller, or a
  helper with no resolvable callers gets flagged — unknown is treated
  as unlocked.

``__init__`` is exempt (no other thread can hold the instance yet), and
``self._lock`` itself is not a guarded attribute.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.base import (
    Checker,
    Project,
    SourceFile,
    Violation,
    register_checker,
)
from repro.lint.graph import _is_self_lock_with, module_name_for

#: method names that mutate their receiver in place
_MUTATOR_METHODS = frozenset(
    (
        "append",
        "add",
        "update",
        "clear",
        "pop",
        "popitem",
        "extend",
        "remove",
        "discard",
        "insert",
        "setdefault",
        "sort",
    )
)


@dataclass
class _Mutation:
    attr: str
    method: str  # enclosing method name
    line: int
    col: int
    in_lock: bool


@dataclass
class _ClassScan:
    module: str
    name: str
    rel: str
    assigns_lock: bool = False
    mutations: List[_Mutation] = field(default_factory=list)


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _MethodScanner(ast.NodeVisitor):
    """Record every ``self.<attr>`` mutation in one method body."""

    def __init__(self, scan: _ClassScan, method: str) -> None:
        self.scan = scan
        self.method = method
        self._lock_depth = 0

    def _record(self, attr: Optional[str], node: ast.AST) -> None:
        if attr is None or attr == "_lock":
            return
        self.scan.mutations.append(
            _Mutation(
                attr=attr,
                method=self.method,
                line=node.lineno,
                col=node.col_offset,
                in_lock=self._lock_depth > 0,
            )
        )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        pass  # nested scope

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        pass

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.AST) -> None:
        locked = _is_self_lock_with(node)
        if locked:
            self._lock_depth += 1
        self.generic_visit(node)
        if locked:
            self._lock_depth -= 1

    def _record_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_target(elt)
            return
        attr = _self_attr(target)
        if attr is not None:
            self._record(attr, target)
            return
        # self.X[key] = ... / self.X[key] += ... mutate self.X
        if isinstance(target, ast.Subscript):
            self._record(_self_attr(target.value), target)

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._record_target(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._record_target(node.target)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._record_target(node.target)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._record_target(target)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        # self.X.append(...) and friends mutate self.X in place
        if isinstance(node.func, ast.Attribute) and (
            node.func.attr in _MUTATOR_METHODS
        ):
            self._record(_self_attr(node.func.value), node)
        self.generic_visit(node)

    def scan_body(self, fn: ast.AST) -> None:
        # walk the statement list, not the def node itself — the nested-
        # def skip must not swallow the method being scanned
        for stmt in fn.body:
            self.visit(stmt)


def _scan_class(
    source: SourceFile, module: str, node: ast.ClassDef
) -> _ClassScan:
    scan = _ClassScan(module=module, name=node.name, rel=source.rel)
    for item in node.body:
        if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for stmt in ast.walk(item):
            if isinstance(stmt, ast.Assign) and any(
                _self_attr(t) == "_lock" for t in stmt.targets
            ):
                scan.assigns_lock = True
        _MethodScanner(scan, item.name).scan_body(item)
    return scan


@register_checker
class LockDisciplineChecker(Checker):
    rule = "lock-discipline"
    description = (
        "state guarded by self._lock in obs/ and runtime/server.py may "
        "only be mutated inside 'with self._lock', including through "
        "call-graph-verified helper methods"
    )
    scope = ("*obs/*.py", "*runtime/server.py")

    def check(self, project: Project) -> List[Violation]:
        graph = project.graph
        scans: Dict[Tuple[str, str], _ClassScan] = {}
        for source in self.scoped_files(project):
            module = module_name_for(source.rel)
            if module is None:
                continue
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    scans[(module, node.name)] = _scan_class(
                        source, module, node
                    )

        chains = {key: graph.base_chain(*key) or [key] for key in scans}
        violations: List[Violation] = []
        for (module, cls_name), scan in sorted(scans.items()):
            owners = [
                key
                for key in chains[(module, cls_name)]
                if key in scans and scans[key].assigns_lock
            ]
            if not owners:
                continue  # lock-free class: single-task by design
            # Every class below the farthest lock owner shares its lock.
            guarded: Set[str] = {
                m.attr
                for key, s in scans.items()
                if owners[-1] in chains[key]
                for m in s.mutations
                if m.in_lock and m.method != "__init__"
            }
            if not guarded:
                continue
            held = self._always_locked_methods(graph, module, cls_name, scan)
            for mutation in scan.mutations:
                if (
                    mutation.attr not in guarded
                    or mutation.in_lock
                    or mutation.method == "__init__"
                    or mutation.method in held
                ):
                    continue
                violations.append(
                    Violation(
                        file=scan.rel,
                        line=mutation.line,
                        col=mutation.col,
                        rule=self.rule,
                        message=(
                            f"self.{mutation.attr} is guarded by self._lock "
                            f"but {cls_name}.{mutation.method} mutates it "
                            "outside 'with self._lock' (and the call graph "
                            "cannot prove every caller holds the lock)"
                        ),
                    )
                )
        return violations

    def _always_locked_methods(
        self,
        graph,
        module: str,
        cls_name: str,
        scan: _ClassScan,
    ) -> Set[str]:
        """Private methods of the class whose every known call site holds
        the lock — directly or through another always-locked method."""
        methods = {m.method for m in scan.mutations}
        held = {
            name
            for name in methods
            if name.startswith("_") and not name.startswith("__")
        }
        changed = True
        while changed:
            changed = False
            for name in sorted(held):
                qual = f"{module}:{cls_name}.{name}"
                callers = graph.callers_of(qual)
                ok = bool(callers)
                for info, call in callers:
                    if call.in_lock:
                        continue
                    if (
                        info.module == module
                        and info.cls == cls_name
                        and info.name in held
                        and info.name != name
                    ):
                        continue
                    ok = False
                    break
                if not ok:
                    held.discard(name)
                    changed = True
        return held
