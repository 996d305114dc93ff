"""``spawn-safety``: the cluster spec blob must survive pickle + spawn.

:class:`~repro.runtime.cluster.RemoteShardBackend` warms its workers
from one pickled ``(net, precision, quantization)`` spec blob, shipped
by ``SPEC_SYNC`` and ``pickle.loads``-ed by each
:mod:`repro.runtime.worker` process, so every object reachable from a
network module or quantization spec crosses a process boundary into a
freshly spawned interpreter with *no* shared state to lean on.  A
stale-weights bug once lived exactly in this seam.  In the reachable
set (``engine/``, ``nn/``, ``quant/``) this rule flags:

* ``lambda`` (or a locally defined closure) stored on ``self`` or as a
  class attribute — lambdas and local functions do not pickle, so the
  first ``SPEC_SYNC`` dies with an opaque ``PicklingError``;
* ``lambda`` passed directly into ``pickle.dumps(...)``;
* mutable literals (``[]`` / ``{}`` / set displays) as class
  attributes — shared across instances in the parent but silently
  *copied per instance* by pickle, so parent-side mutation diverges
  from what workers see (module-level mutable state in miniature).

Consumed-immediately lambdas (cache factory thunks and the like) are
fine: only values *stored* on classes/instances or pickled directly are
reachable from a payload.
"""

from __future__ import annotations

import ast
from typing import List, Set

from repro.lint.base import (
    Checker,
    Project,
    SourceFile,
    Violation,
    register_checker,
)


def _assigned_values(node: ast.AST):
    if isinstance(node, ast.Assign):
        for target in node.targets:
            yield target, node.value
    elif isinstance(node, ast.AnnAssign) and node.value is not None:
        yield node.target, node.value


def _is_mutable_literal(value: ast.AST) -> bool:
    return isinstance(
        value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
    )


def _local_function_names(fn: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                names.add(node.name)
    return names


@register_checker
class SpawnSafetyChecker(Checker):
    rule = "spawn-safety"
    description = (
        "no lambdas/closures stored on payload-reachable objects, no "
        "lambdas pickled directly, no mutable class attributes in the "
        "cluster spec blob's reachable set"
    )
    # The runtime cluster modules are in scope too: everything they
    # pickle crosses the wire, so the same pickle safety rules apply to
    # the coordinator, the worker, and the frame codec.
    scope = (
        "*engine/*.py",
        "*nn/*.py",
        "*quant/*.py",
        "*runtime/wire.py",
        "*runtime/worker.py",
        "*runtime/cluster.py",
    )

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for source in self.scoped_files(project):
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    violations.extend(self._check_class(source, node))
                elif isinstance(node, ast.Call):
                    violations.extend(self._check_pickle_call(source, node))
        return violations

    def _check_class(
        self, source: SourceFile, cls: ast.ClassDef
    ) -> List[Violation]:
        out: List[Violation] = []
        for stmt in cls.body:
            for _target, value in _assigned_values(stmt):
                if isinstance(value, ast.Lambda):
                    out.append(
                        self.violation(
                            source,
                            stmt,
                            f"class {cls.name!r} stores a lambda as a class "
                            "attribute — lambdas do not pickle, so any "
                            "instance reachable from the cluster spec blob "
                            "breaks in a spawned worker",
                        )
                    )
                elif _is_mutable_literal(value):
                    out.append(
                        self.violation(
                            source,
                            stmt,
                            f"class {cls.name!r} has a mutable class "
                            "attribute — shared in-process but copied per "
                            "instance by pickle, so worker state diverges "
                            "from the parent; use an instance field or an "
                            "immutable tuple",
                        )
                    )
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.extend(self._check_method(source, cls, method))
        return out

    def _check_method(
        self, source: SourceFile, cls: ast.ClassDef, method: ast.AST
    ) -> List[Violation]:
        out: List[Violation] = []
        local_defs = _local_function_names(method)
        for node in ast.walk(method):
            for target, value in _assigned_values(node):
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                if isinstance(value, ast.Lambda):
                    out.append(
                        self.violation(
                            source,
                            node,
                            f"{cls.name}.{method.name} stores a lambda on "
                            "self — instances reachable from the cluster spec "
                            "blob become unpicklable in a spawned worker",
                        )
                    )
                elif isinstance(value, ast.Name) and value.id in local_defs:
                    out.append(
                        self.violation(
                            source,
                            node,
                            f"{cls.name}.{method.name} stores the local "
                            f"function {value.id!r} on self — local closures "
                            "do not pickle, breaking the cluster spec blob "
                            "in a spawned worker",
                        )
                    )
        return out

    def _check_pickle_call(
        self, source: SourceFile, node: ast.Call
    ) -> List[Violation]:
        func = node.func
        is_dumps = (
            isinstance(func, ast.Attribute)
            and func.attr in ("dumps", "dump")
            and isinstance(func.value, ast.Name)
            and func.value.id == "pickle"
        )
        if not is_dumps:
            return []
        out: List[Violation] = []
        for arg in list(node.args) + [kw.value for kw in node.keywords]:
            for child in ast.walk(arg):
                if isinstance(child, ast.Lambda):
                    out.append(
                        self.violation(
                            source,
                            node,
                            "lambda passed into pickle.dumps — lambdas do "
                            "not pickle; use a module-level function",
                        )
                    )
        return out
