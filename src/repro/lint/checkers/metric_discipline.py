"""``metric-discipline``: declared metrics are live, and labels agree.

A metric declared on a :class:`~repro.obs.metrics.MetricRegistry` but
never incremented is worse than no metric: dashboards and alerts built
on it read a permanent zero and *look* healthy.  A metric mutated with
the wrong label set is nearly as bad — ``labels()`` raises or a new
series silently forks away from the one the dashboard watches.  This
rule closes both gaps project-wide:

* every ``registry.counter/gauge/histogram("name", ...)`` declaration
  (string-literal name) must have at least one mutating call site
  (``inc`` / ``dec`` / ``set`` / ``observe``) somewhere in the project —
  found through the attribute or variable the metric was bound to,
  through method-local aliases of ``self.<attr>``, or chained directly
  on the declaration.  A declaration with a ``read=`` keyword is a
  reader counter, a view of a count its owner keeps, and is live by
  construction;
* that call site must be **reachable**: in module-level code, in a
  public function/method, or reachable from one through the call graph
  (functions referenced as bare callables count as entry points — a
  callback registration keeps its target live);
* every mutating or reading call site whose keyword arguments are
  explicit (no ``**kwargs``) must pass exactly the declared label set —
  value-carrying keywords (``amount`` / ``value`` / ``q``) excluded.

Receivers that do not trace back to a declaration are ignored
(``asyncio.Event().set()`` is not a gauge), and a variable bound to
more than one label shape skips the label check rather than guess —
unknown never false-positives.
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
from repro.lint.graph import module_name_for

_DECL_METHODS = frozenset(("counter", "gauge", "histogram"))
_MUTATORS = frozenset(("inc", "dec", "set", "observe"))
_READERS = frozenset(("value", "count", "sum", "quantile"))
#: keywords that carry values, not labels
_VALUE_KWARGS = frozenset(("amount", "value", "q"))


@dataclass
class _Declaration:
    name: str  # the metric's registered string name
    labels: Tuple[str, ...]
    rel: str
    line: int
    col: int
    #: qualname of the enclosing function, or None at module level
    owner: Optional[str]
    #: declared with ``read=``: reads its owner's count, never mutated
    reads: bool


@dataclass
class _UseSite:
    decl_names: Tuple[str, ...]  # candidate metrics this receiver may be
    mutates: bool
    kwargs: Optional[Tuple[str, ...]]  # None when **kwargs / *args present
    rel: str
    line: int
    col: int
    owner: Optional[str]


def _literal_labels(call: ast.Call) -> Tuple[str, ...]:
    for kw in call.keywords:
        if kw.arg == "labels" and isinstance(
            kw.value, (ast.Tuple, ast.List)
        ):
            out = []
            for elt in kw.value.elts:
                if isinstance(elt, ast.Constant) and isinstance(
                    elt.value, str
                ):
                    out.append(elt.value)
            return tuple(out)
    return ()


def _is_declaration(node: ast.Call) -> Optional[str]:
    """The literal metric name when ``node`` declares one, else None."""
    if (
        isinstance(node.func, ast.Attribute)
        and node.func.attr in _DECL_METHODS
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        return node.args[0].value
    return None


def _call_kwargs(node: ast.Call) -> Optional[Tuple[str, ...]]:
    """Explicit keyword names at a call site, ``None`` with ``**kwargs``."""
    names: List[str] = []
    for kw in node.keywords:
        if kw.arg is None:  # **kwargs — labels unknowable statically
            return None
        names.append(kw.arg)
    return tuple(sorted(set(names) - _VALUE_KWARGS))


class _ModuleScan(ast.NodeVisitor):
    """Collect declarations and metric use sites in one file."""

    def __init__(self, source: SourceFile, module: str) -> None:
        self.source = source
        self.module = module
        self.declarations: List[_Declaration] = []
        self.uses: List[_UseSite] = []
        self._cls: Optional[str] = None
        self._fn: Optional[str] = None
        #: binding name ("self.X" / "X") -> metric names bound to it
        self.bindings: Dict[str, Set[str]] = {}
        #: per-function local aliases: name -> "self.X" binding key
        self._aliases: Dict[str, str] = {}

    # -- scope tracking -------------------------------------------------

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        prev = self._cls
        self._cls = node.name if prev is None else f"{prev}.{node.name}"
        self.generic_visit(node)
        self._cls = prev

    def _visit_fn(self, node: ast.AST) -> None:
        prev_fn, prev_aliases = self._fn, self._aliases
        name = (
            f"{self._cls}.{node.name}" if self._cls else node.name
        )
        self._fn = f"{self.module}:{name}"
        self._aliases = {}
        self.generic_visit(node)
        self._fn, self._aliases = prev_fn, prev_aliases

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_fn(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_fn(node)

    # -- bindings -------------------------------------------------------

    def _binding_key(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            alias = self._aliases.get(node.id)
            if alias is not None:
                return alias
            return node.id
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            return f"self.{node.attr}"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        value = node.value
        metric_name = (
            _is_declaration(value) if isinstance(value, ast.Call) else None
        )
        for target in node.targets:
            key = (
                self._binding_key(target)
                if not isinstance(target, (ast.Tuple, ast.List))
                else None
            )
            if key is None:
                continue
            if metric_name is not None:
                self.bindings.setdefault(key, set()).add(metric_name)
            elif isinstance(target, ast.Name):
                # ``lookups = self._m_cache_lookups`` — a local alias of
                # a bound metric attribute
                source_key = self._binding_key(value)
                if source_key is not None and source_key.startswith("self."):
                    self._aliases[target.id] = source_key
        self.generic_visit(node)

    # -- declarations and uses ------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        metric_name = _is_declaration(node)
        if metric_name is not None:
            self.declarations.append(
                _Declaration(
                    name=metric_name,
                    labels=_literal_labels(node),
                    rel=self.source.rel,
                    line=node.lineno,
                    col=node.col_offset,
                    owner=self._fn,
                    reads=any(kw.arg == "read" for kw in node.keywords),
                )
            )
        func = node.func
        if isinstance(func, ast.Attribute) and (
            func.attr in _MUTATORS or func.attr in _READERS
        ):
            decl_names: Tuple[str, ...] = ()
            if isinstance(func.value, ast.Call):
                chained = _is_declaration(func.value)
                if chained is not None:
                    decl_names = (chained,)
            else:
                key = self._binding_key(func.value)
                if key is not None and key in self.bindings:
                    decl_names = tuple(sorted(self.bindings[key]))
            if decl_names:
                self.uses.append(
                    _UseSite(
                        decl_names=decl_names,
                        mutates=func.attr in _MUTATORS,
                        kwargs=_call_kwargs(node),
                        rel=self.source.rel,
                        line=node.lineno,
                        col=node.col_offset,
                        owner=self._fn,
                    )
                )
        self.generic_visit(node)


class _AnchorNode:
    def __init__(self, line: int, col: int = 0) -> None:
        self.lineno = line
        self.col_offset = col


@register_checker
class MetricDisciplineChecker(Checker):
    rule = "metric-discipline"
    description = (
        "every registry-declared metric is mutated somewhere reachable, "
        "with the declared label set at every explicit call site"
    )
    scope = ("*.py",)

    def check(self, project: Project) -> List[Violation]:
        scans: List[_ModuleScan] = []
        for source in self.scoped_files(project):
            module = module_name_for(source.rel)
            if module is None:
                continue
            scan = _ModuleScan(source, module)
            scan.visit(source.tree)
            scans.append(scan)

        declarations: List[_Declaration] = [
            d for scan in scans for d in scan.declarations
        ]
        if not declarations:
            return []  # project registers no metrics: nothing to check
        uses: List[_UseSite] = [u for scan in scans for u in scan.uses]

        # Because one binding can (in principle) hold several metrics, a
        # use site credits every candidate; the shared label check skips
        # ambiguous bindings with conflicting shapes.
        labels_by_metric: Dict[str, Set[Tuple[str, ...]]] = {}
        for decl in declarations:
            labels_by_metric.setdefault(decl.name, set()).add(decl.labels)

        reachable = self._reachable_owners(project, scans)
        mutated: Set[str] = set()
        mutated_reachably: Set[str] = set()
        violations: List[Violation] = []

        for use in uses:
            if use.mutates:
                mutated.update(use.decl_names)
                if use.owner is None or use.owner in reachable:
                    mutated_reachably.update(use.decl_names)
            if use.kwargs is None:
                continue
            shapes = set()
            for name in use.decl_names:
                shapes.update(labels_by_metric.get(name, set()))
            if len(shapes) != 1:
                continue  # ambiguous or unknown shape: do not guess
            (declared,) = shapes
            if tuple(sorted(declared)) != use.kwargs:
                metric = "/".join(use.decl_names)
                violations.append(
                    Violation(
                        file=use.rel,
                        line=use.line,
                        col=use.col,
                        rule=self.rule,
                        message=(
                            f"metric {metric} declared with labels "
                            f"({', '.join(sorted(declared)) or 'none'}) but "
                            f"this call site passes "
                            f"({', '.join(use.kwargs) or 'none'})"
                        ),
                    )
                )

        seen_decl: Set[Tuple[str, str]] = set()
        for decl in declarations:
            if (decl.rel, decl.name) in seen_decl or decl.reads:
                continue
            seen_decl.add((decl.rel, decl.name))
            if decl.name not in mutated:
                violations.append(
                    Violation(
                        file=decl.rel,
                        line=decl.line,
                        col=decl.col,
                        rule=self.rule,
                        message=(
                            f"metric {decl.name} is declared but never "
                            "incremented/observed anywhere in the project "
                            "— dashboards on it read a permanent zero"
                        ),
                    )
                )
            elif decl.name not in mutated_reachably:
                violations.append(
                    Violation(
                        file=decl.rel,
                        line=decl.line,
                        col=decl.col,
                        rule=self.rule,
                        message=(
                            f"metric {decl.name} is only mutated in code "
                            "unreachable from any public entry point"
                        ),
                    )
                )
        return violations

    def _reachable_owners(
        self, project: Project, scans: List[_ModuleScan]
    ) -> Set[str]:
        """Qualnames reachable from the public surface.

        Roots: public functions/methods (no leading underscore),
        dunders (called implicitly), and any function referenced as a
        bare callable somewhere (callback registrations).  Everything
        the call graph reaches from a root is reachable; unresolved
        call sites cannot *extend* reachability, which is why bare-
        callable mentions are roots too.
        """
        graph = project.graph
        roots: List[str] = []
        mentioned: Set[str] = set()
        for info in graph.functions.values():
            for mention in info.mentions:
                leaf = mention.rsplit(".", 1)[-1]
                mentioned.add(leaf)
        for qual, info in graph.functions.items():
            public = not info.name.startswith("_") or (
                info.name.startswith("__") and info.name.endswith("__")
            )
            if public or info.name in mentioned:
                roots.append(qual)
        return graph.reachable_from(roots)
