"""``backend-contract``: registered backends must honor the seam.

Every class handed to :func:`repro.engine.backend.register_backend` is a
compute engine the session will drive blind — the registry erases the
type, so a missing or mis-shaped method surfaces only at serve time,
deep inside a dispatch.  This rule proves the contract statically:

* registry keys are string literals (greppable, and statically
  checkable for duplicates) and no key is registered twice without
  ``overwrite=True``;
* the registered class provides a *concrete* implementation — own or
  inherited, but not a bare ``raise NotImplementedError`` stub — of the
  full :class:`~repro.engine.backend.ExecutionBackend` surface:
  ``execute`` / ``capabilities`` / ``close``;
* each implementation's signature is call-compatible with how the
  session invokes it (positional arity, plus the ``stats=`` keyword on
  ``execute``).

Zero-arg factory functions and lambdas are legal registry values but
cannot be analyzed; only classes resolvable inside the linted source
set are checked.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Tuple

from repro.lint.base import (
    Checker,
    Project,
    SourceFile,
    Violation,
    register_checker,
)

#: method -> (positional call arity including self, required keyword).
_SURFACE: Dict[str, Tuple[int, Optional[str]]] = {
    "execute": (5, "stats"),
    "capabilities": (1, None),
    "close": (1, None),
}


def _is_register_call(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "register_backend"
    if isinstance(func, ast.Attribute):
        return func.attr == "register_backend"
    return False


def _call_argument(node: ast.Call, index: int, keyword: str):
    if len(node.args) > index:
        return node.args[index]
    for kw in node.keywords:
        if kw.arg == keyword:
            return kw.value
    return None


def _has_overwrite(node: ast.Call) -> bool:
    value = _call_argument(node, 2, "overwrite")
    return isinstance(value, ast.Constant) and bool(value.value)


def _docstring_stripped(body: List[ast.stmt]) -> List[ast.stmt]:
    if (
        body
        and isinstance(body[0], ast.Expr)
        and isinstance(body[0].value, ast.Constant)
        and isinstance(body[0].value.value, str)
    ):
        return body[1:]
    return body


def _is_abstract(fn: ast.FunctionDef) -> bool:
    """A body that is nothing but ``raise NotImplementedError`` (+docstring)."""
    body = _docstring_stripped(fn.body)
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _signature_issue(
    fn: ast.FunctionDef, arity: int, keyword: Optional[str]
) -> Optional[str]:
    """Why ``fn`` cannot take the session's call shape, or ``None``."""
    args = fn.args
    positional = list(args.posonlyargs) + list(args.args)
    min_positional = len(positional) - len(args.defaults)
    if min_positional > arity:
        return (
            f"requires {min_positional} positional arguments but callers "
            f"pass {arity}"
        )
    if args.vararg is None and len(positional) < arity:
        return (
            f"accepts at most {len(positional)} positional arguments but "
            f"callers pass {arity}"
        )
    if keyword is not None and args.kwarg is None:
        names = {a.arg for a in positional} | {a.arg for a in args.kwonlyargs}
        if keyword not in names:
            return f"must accept a {keyword!r} keyword argument"
    return None


class _ClassTable:
    """Name-resolvable class definitions across the whole linted set."""

    def __init__(self, project: Project) -> None:
        self.classes: Dict[str, ast.ClassDef] = {}
        for source in project.iter_files(("*.py",)):
            for node in ast.walk(source.tree):
                if isinstance(node, ast.ClassDef):
                    self.classes.setdefault(node.name, node)

    def _bases(self, cls: ast.ClassDef) -> List[str]:
        names = []
        for base in cls.bases:
            if isinstance(base, ast.Name):
                names.append(base.id)
            elif isinstance(base, ast.Attribute):
                names.append(base.attr)
        return names

    def resolve_method(
        self, cls_name: str, method: str
    ) -> Optional[Tuple[ast.AST, bool]]:
        """Nearest definition of ``method`` in the resolvable hierarchy.

        Returns ``(node, is_function)`` — depth-first over base names,
        own body first; unresolvable bases contribute nothing (the
        contract must be provable from the linted sources).
        """
        seen = set()
        stack = [cls_name]
        while stack:
            name = stack.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self.classes.get(name)
            if cls is None:
                continue
            for stmt in cls.body:
                if (
                    isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and stmt.name == method
                ):
                    return stmt, True
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == method
                    for t in stmt.targets
                ):
                    return stmt, False
            stack.extend(self._bases(cls))
        return None


@register_checker
class BackendContractChecker(Checker):
    rule = "backend-contract"
    description = (
        "classes passed to register_backend implement the full concrete "
        "ExecutionBackend surface with call-compatible signatures, and "
        "registry keys are unique string literals"
    )
    scope = ("*.py",)

    def check(self, project: Project) -> List[Violation]:
        table = _ClassTable(project)
        violations: List[Violation] = []
        first_site: Dict[str, str] = {}
        for source in self.scoped_files(project):
            for node in ast.walk(source.tree):
                if not (isinstance(node, ast.Call) and _is_register_call(node)):
                    continue
                violations.extend(
                    self._check_registration(source, node, table, first_site)
                )
        return violations

    def _check_registration(
        self,
        source: SourceFile,
        node: ast.Call,
        table: _ClassTable,
        first_site: Dict[str, str],
    ) -> List[Violation]:
        out: List[Violation] = []
        key = _call_argument(node, 0, "name")
        factory = _call_argument(node, 1, "factory")
        if key is None or factory is None:
            return out  # malformed call; the runtime raises on its own
        if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            out.append(
                self.violation(
                    source,
                    node,
                    "backend registry key must be a string literal, not a "
                    "computed expression (static duplicate checking needs "
                    "the literal)",
                )
            )
            key_name = None
        else:
            key_name = key.value
        if key_name is not None:
            site = f"{source.rel}:{node.lineno}"
            if key_name in first_site and not _has_overwrite(node):
                out.append(
                    self.violation(
                        source,
                        node,
                        f"backend key {key_name!r} is registered more than "
                        f"once (first at {first_site[key_name]}); pass "
                        "overwrite=True if the replacement is intentional",
                    )
                )
            else:
                first_site.setdefault(key_name, site)
        if isinstance(factory, ast.Name) and factory.id in table.classes:
            out.extend(
                self._check_contract(source, node, table, factory.id)
            )
        return out

    def _check_contract(
        self,
        source: SourceFile,
        node: ast.Call,
        table: _ClassTable,
        cls_name: str,
    ) -> List[Violation]:
        out: List[Violation] = []
        for method, (arity, keyword) in sorted(_SURFACE.items()):
            resolved = table.resolve_method(cls_name, method)
            if resolved is None:
                out.append(
                    self.violation(
                        source,
                        node,
                        f"registered backend {cls_name!r} does not define "
                        f"{method}() anywhere in its resolvable class "
                        "hierarchy (full ExecutionBackend surface required)",
                    )
                )
                continue
            definition, is_function = resolved
            if not is_function:
                continue  # assigned callable: concrete, shape unknowable
            if _is_abstract(definition):
                out.append(
                    self.violation(
                        source,
                        node,
                        f"registered backend {cls_name!r} only inherits the "
                        f"abstract {method}() stub (raise NotImplementedError)"
                        " — a concrete implementation is required",
                    )
                )
                continue
            issue = _signature_issue(definition, arity, keyword)
            if issue is not None:
                out.append(
                    self.violation(
                        source,
                        node,
                        f"{cls_name}.{method}() is not call-compatible with "
                        f"the ExecutionBackend contract: {issue}",
                    )
                )
        return out
