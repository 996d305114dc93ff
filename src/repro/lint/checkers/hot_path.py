"""``hot-path``: vectorization and dtype discipline in the compute core.

PRs 1–5 bought the engine's speed by banishing a handful of patterns
from the matching and execution hot paths (``engine/``,
``sparse/ops.py``, ``nn/rulebook.py``); this rule keeps them banished:

* ``np.add.at`` — the buffered scalar scatter is orders of magnitude
  slower than the fused per-offset ``out[rows] += contribution`` (the
  seed's 10.3 ms/layer vs the engine's 1.6 ms was mostly this call);
* per-element ``for`` loops over array rows (``range(len(x))`` /
  ``range(x.shape[0])``, directly or through a local alias) — row work
  belongs in vectorized numpy expressions;
* list/set-append accumulation inside loops — growing Python
  collections element-wise hides an O(n) interpreter loop behind numpy
  code (the pre-PR-6 ``downsampled_coords`` fallback was exactly this);
* ``float32``/``float16`` narrowing (``astype(np.float32)``,
  ``np.float32(...)``) in functions that never consult the session's
  precision or quantization settings — ad-hoc narrowing silently breaks
  the bit-identity contract between backends.

Intentional exceptions (per-offset rule lists bounded by the kernel
volume) carry inline ``# repro-lint: disable=hot-path`` suppressions
stating why.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.base import (
    Checker,
    Project,
    SourceFile,
    Violation,
    register_checker,
)

_NARROWING = ("float32", "float16")


def _is_numpy_name(node: ast.AST) -> bool:
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


def _is_len_or_shape(node: ast.AST) -> bool:
    """``len(x)`` or ``x.shape[i]`` — an array's element count."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "len"
    ):
        return True
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Attribute)
        and node.value.attr == "shape"
    )


def _narrowing_dtype(node: ast.AST) -> Optional[str]:
    """The narrow dtype a call argument names, if any."""
    if isinstance(node, ast.Attribute) and node.attr in _NARROWING:
        if _is_numpy_name(node.value):
            return node.attr
    if isinstance(node, ast.Constant) and node.value in _NARROWING:
        return str(node.value)
    return None


class _FunctionScan:
    """Per-function pass: collect dataflow facts, then flag patterns.

    Nested function definitions are scanned as their own functions (a
    closure has its own locals), so the recursive walk stops at any
    ``def`` boundary and queues it.
    """

    def __init__(
        self,
        checker: "HotPathChecker",
        source: SourceFile,
        fn: ast.AST,
    ) -> None:
        self.checker = checker
        self.source = source
        self.fn = fn
        self.violations: List[Violation] = []
        # Local names bound to empty list/set constructors.
        self.collections: Set[str] = set()
        # Local names aliasing len(...)/x.shape[...] values.
        self.length_aliases: Set[str] = set()
        # Whether the function consults precision/quantization settings,
        # which legitimizes an explicit float32 cast (the session's
        # _run_group cast to the session dtype).
        self.routed = False

    # -- pass 1: facts --------------------------------------------------
    def _collect(self, node: ast.AST) -> None:
        for child in ast.walk(node):
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (
                    child.targets
                    if isinstance(child, ast.Assign)
                    else [child.target]
                )
                value = child.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if self._is_empty_collection(value):
                        self.collections.add(target.id)
                    if _is_len_or_shape(value):
                        self.length_aliases.add(target.id)
            if isinstance(child, ast.Name) and child.id == "precision":
                self.routed = True
            if isinstance(child, ast.Attribute) and (
                child.attr == "precision" or "quant" in child.attr
            ):
                self.routed = True
            if isinstance(child, ast.Name) and "quant" in child.id:
                self.routed = True

    @staticmethod
    def _is_empty_collection(value: ast.AST) -> bool:
        if isinstance(value, (ast.List, ast.Set)) and not value.elts:
            return True
        return (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in ("list", "set")
            and not value.args
        )

    # -- pass 2: flags ---------------------------------------------------
    def run(self) -> List[Violation]:
        self._collect(self.fn)
        for stmt in self.fn.body:
            self._visit(stmt, accumulator=None)
        return self.violations

    def _visit(self, node: ast.AST, accumulator: Optional[Set[str]]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self.violations.extend(
                _FunctionScan(self.checker, self.source, node).run()
            )
            return
        if isinstance(node, ast.Call):
            self._check_call(node, accumulator)
        if isinstance(node, ast.For):
            self._check_loop(node, accumulator)
            return  # _check_loop recursed with its own accumulator
        for child in ast.iter_child_nodes(node):
            self._visit(child, accumulator)

    def _check_loop(
        self, node: ast.For, outer: Optional[Set[str]]
    ) -> None:
        if self._is_per_element_range(node.iter):
            self.violations.append(
                self.checker.violation(
                    self.source,
                    node,
                    "per-element loop over array rows (for ... in "
                    "range(len/shape)) in a hot path — vectorize across "
                    "rows instead",
                )
            )
        accumulated: Set[str] = set()
        for child in ast.iter_child_nodes(node):
            self._visit(child, accumulated)
        if accumulated:
            names = ", ".join(repr(name) for name in sorted(accumulated))
            self.violations.append(
                self.checker.violation(
                    self.source,
                    node,
                    f"loop accumulates into {names} via append/add in a hot "
                    "path — preallocate or build with one vectorized "
                    "concatenation",
                )
            )

    def _is_per_element_range(self, iter_node: ast.AST) -> bool:
        if not (
            isinstance(iter_node, ast.Call)
            and isinstance(iter_node.func, ast.Name)
            and iter_node.func.id == "range"
        ):
            return False
        for arg in iter_node.args:
            if _is_len_or_shape(arg):
                return True
            if isinstance(arg, ast.Name) and arg.id in self.length_aliases:
                return True
        return False

    def _check_call(
        self, node: ast.Call, accumulator: Optional[Set[str]]
    ) -> None:
        func = node.func
        # np.add.at(...)
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "at"
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "add"
            and _is_numpy_name(func.value.value)
        ):
            self.violations.append(
                self.checker.violation(
                    self.source,
                    node,
                    "np.add.at buffered scatter in a hot path — use the "
                    "fused per-offset scatter (out[rows] += contribution)",
                )
            )
        # local_list.append(...) / local_set.add(...) inside a loop
        if (
            accumulator is not None
            and isinstance(func, ast.Attribute)
            and func.attr in ("append", "add")
            and isinstance(func.value, ast.Name)
            and func.value.id in self.collections
        ):
            accumulator.add(func.value.id)
        # x.astype(np.float32) / np.float32(x) narrowing
        narrowed = None
        if (
            isinstance(func, ast.Attribute)
            and func.attr == "astype"
            and node.args
        ):
            narrowed = _narrowing_dtype(node.args[0])
        elif isinstance(func, ast.Attribute) and _is_numpy_name(func.value):
            if func.attr in _NARROWING and node.args:
                narrowed = func.attr
        if narrowed is not None and not self.routed:
            self.violations.append(
                self.checker.violation(
                    self.source,
                    node,
                    f"explicit {narrowed} narrowing in a hot path not routed "
                    "through the session precision/quantization settings — "
                    "ad-hoc casts break backend bit-identity",
                )
            )


@register_checker
class HotPathChecker(Checker):
    rule = "hot-path"
    description = (
        "no np.add.at, per-element loops, collection-append accumulation, "
        "or unrouted float narrowing in the engine/matching hot paths"
    )
    # ``*engine/*.py`` covers the whole engine package, including the
    # mapping-ops subsystem (mapping.py, mapping_delta.py); the point-
    # based layers ride the mapping hot path too, so they are scoped in
    # alongside the rulebook builder.
    scope = (
        "*engine/*.py",
        "*sparse/ops.py",
        "*nn/rulebook.py",
        "*nn/point_layers.py",
    )

    def check(self, project: Project) -> List[Violation]:
        violations: List[Violation] = []
        for source in self.scoped_files(project):
            for node in source.tree.body:
                violations.extend(self._scan_scope(source, node))
        return violations

    def _scan_scope(self, source: SourceFile, node: ast.AST) -> List[Violation]:
        """Scan top-level defs and class methods as separate functions."""
        out: List[Violation] = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.extend(_FunctionScan(self, source, node).run())
        elif isinstance(node, ast.ClassDef):
            for stmt in node.body:
                out.extend(self._scan_scope(source, stmt))
        return out
