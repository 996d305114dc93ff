"""``stats-drift``: CLI and docs must reference real stats fields.

The observability surface (``SessionStats``, ``StreamStats``,
``FrameResult``, ``ServeStats``, ``ClusterStats``) grows a field or two
per PR, and the consumers live far from the dataclasses: ``cli.py``
formats them into report lines and ``docs/*.md`` names them in prose.
A renamed or removed field turns the CLI into an ``AttributeError`` at
demo time and the docs into fiction — neither is caught by the
type-less test surface.  This rule cross-checks both consumers against
the dataclass definitions found in the linted sources:

* in ``cli.py``, receiver types are inferred from the construction
  idioms the CLI actually uses (``InferenceSession(...).stats``,
  ``RemoteShardBackend(...).stats``, ``StreamingRunner(...).run(...)``,
  ``serve_frames(...)`` tuple unpacking, ``for frame in stats.frames``)
  and every attribute access on an inferred receiver must resolve to a
  field, property, or method;
* in ``docs/*.md``, every ``ClassName.attr`` reference (including the
  ``ClassName.a / b / c`` shorthand the docs use) must resolve the same
  way;
* every ``repro_*`` metric name registered through the
  :mod:`repro.obs.metrics` registry (``.counter(...)`` / ``.gauge(...)``
  / ``.histogram(...)`` with a string-literal name) must appear
  backticked in ``docs/observability.md``, and every backticked
  ``repro_*`` token there must be registered somewhere in the linted
  sources (histogram ``_bucket``/``_sum``/``_count`` series resolve to
  their base name).

Classes absent from the linted sources are skipped — fixture projects
only validate the classes they define.  The metric cross-check is
likewise skipped when the source set registers no metrics.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Optional, Set

from repro.lint.base import (
    Checker,
    Project,
    SourceFile,
    Violation,
    register_checker,
)

_STATS_CLASSES = (
    "SessionStats", "StreamStats", "FrameResult", "ServeStats", "ClusterStats"
)

_DOC_REF = re.compile(rf"\b({'|'.join(_STATS_CLASSES)})\.(\w+)")
# `X.a / b / c` continuation shorthand (possibly across backticks/lines).
_DOC_CONTINUATION = re.compile(r"[ \t`]*/[ \t`\r\n]*(\w+)")

#: Registry declaration methods whose first argument is a metric name.
_METRIC_METHODS = frozenset({"counter", "gauge", "histogram"})
#: Backticked metric tokens in docs — the documented catalog.
_DOC_METRIC = re.compile(r"`(repro_[a-z0-9_]+)`")
#: Prometheus series a histogram expands into; docs may name them.
_SERIES_SUFFIXES = ("_bucket", "_sum", "_count")
_METRIC_DOC = "docs/observability.md"


def _collect_metric_names(project: Project) -> Dict[str, SourceFile]:
    """``repro_*`` names registered via ``.counter/.gauge/.histogram``."""
    declared: Dict[str, SourceFile] = {}
    for source in project.iter_files(("*.py",)):
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _METRIC_METHODS
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
                and node.args[0].value.startswith("repro_")
            ):
                continue
            declared.setdefault(node.args[0].value, source)
    return declared


def _collect_surfaces(project: Project) -> Dict[str, Set[str]]:
    """Field/property/method names of each stats dataclass in the set."""
    surfaces: Dict[str, Set[str]] = {}
    for source in project.iter_files(("*.py",)):
        for node in ast.walk(source.tree):
            if not (
                isinstance(node, ast.ClassDef)
                and node.name in _STATS_CLASSES
            ):
                continue
            attrs = surfaces.setdefault(node.name, set())
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(
                    stmt.target, ast.Name
                ):
                    attrs.add(stmt.target.id)
                elif isinstance(stmt, ast.Assign):
                    for target in stmt.targets:
                        if isinstance(target, ast.Name):
                            attrs.add(target.id)
                elif isinstance(
                    stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    attrs.add(stmt.name)
    return surfaces


class _CliInference(ast.NodeVisitor):
    """Track which CLI locals hold which stats class, per function."""

    def __init__(self) -> None:
        # name -> stats class, or the sentinels "_session" / "_runner" /
        # "_server" / "_backend" for producers of stats objects.
        self.env: Dict[str, str] = {}
        self.accesses: List[ast.Attribute] = []

    def _value_type(self, value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Name):
                if func.id == "InferenceSession":
                    return "_session"
                if func.id == "StreamingRunner":
                    return "_runner"
                if func.id == "SessionServer":
                    return "_server"
                if func.id == "RemoteShardBackend":
                    return "_backend"
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "run"
                and isinstance(func.value, ast.Name)
                and self.env.get(func.value.id) == "_runner"
            ):
                return "StreamStats"
        if isinstance(value, ast.Attribute) and value.attr == "stats":
            if isinstance(value.value, ast.Name):
                owner = self.env.get(value.value.id)
                if owner == "_session":
                    return "SessionStats"
                if owner == "_server":
                    return "ServeStats"
                if owner == "_backend":
                    return "ClusterStats"
        return None

    def visit_Assign(self, node: ast.Assign) -> None:
        inferred = self._value_type(node.value)
        for target in node.targets:
            if isinstance(target, ast.Name) and inferred is not None:
                self.env[target.id] = inferred
            elif (
                isinstance(target, ast.Tuple)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Name)
                and node.value.func.id in ("serve_frames", "serve")
                and len(target.elts) == 2
                and isinstance(target.elts[1], ast.Name)
            ):
                self.env[target.elts[1].id] = "ServeStats"
        self.generic_visit(node)

    def visit_For(self, node: ast.For) -> None:
        if (
            isinstance(node.target, ast.Name)
            and isinstance(node.iter, ast.Attribute)
            and node.iter.attr == "frames"
            and isinstance(node.iter.value, ast.Name)
            and self.env.get(node.iter.value.id) == "StreamStats"
        ):
            self.env[node.target.id] = "FrameResult"
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            self.accesses.append(node)
        self.generic_visit(node)


@register_checker
class StatsDriftChecker(Checker):
    rule = "stats-drift"
    description = (
        "every SessionStats/StreamStats/FrameResult/ServeStats/ClusterStats "
        "attribute referenced in cli.py and docs/*.md exists on the "
        "dataclass, and registered repro_* metric names stay in sync with "
        "docs/observability.md"
    )
    scope = ("*cli.py",)

    def check(self, project: Project) -> List[Violation]:
        surfaces = _collect_surfaces(project)
        violations: List[Violation] = []
        for source in self.scoped_files(project):
            violations.extend(self._check_cli(source, surfaces))
        violations.extend(self._check_docs(project, surfaces))
        violations.extend(self._check_metric_docs(project))
        return violations

    def _check_cli(
        self, source: SourceFile, surfaces: Dict[str, Set[str]]
    ) -> List[Violation]:
        out: List[Violation] = []
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            inference = _CliInference()
            inference.visit(node)
            for access in inference.accesses:
                cls = inference.env.get(access.value.id)  # type: ignore[union-attr]
                if cls not in surfaces:
                    continue
                if access.attr.startswith("__"):
                    continue
                if access.attr not in surfaces[cls]:
                    out.append(
                        self.violation(
                            source,
                            access,
                            f"CLI references {cls}.{access.attr}, which does "
                            f"not exist on the {cls} dataclass — stats-field "
                            "drift",
                        )
                    )
        return out

    def _check_docs(
        self, project: Project, surfaces: Dict[str, Set[str]]
    ) -> List[Violation]:
        out: List[Violation] = []
        docs_dir = Path(project.root) / "docs"
        if not docs_dir.is_dir():
            return out
        for doc in sorted(docs_dir.glob("*.md")):
            try:
                text = doc.read_text(encoding="utf-8")
            except OSError:
                continue
            rel = doc.relative_to(project.root).as_posix()
            for match in _DOC_REF.finditer(text):
                cls = match.group(1)
                if cls not in surfaces:
                    continue
                attrs = [(match.group(2), match.start(2))]
                pos = match.end()
                while True:
                    cont = _DOC_CONTINUATION.match(text, pos)
                    if cont is None:
                        break
                    attrs.append((cont.group(1), cont.start(1)))
                    pos = cont.end()
                for attr, start in attrs:
                    if attr in surfaces[cls]:
                        continue
                    line = text.count("\n", 0, start) + 1
                    out.append(
                        Violation(
                            file=rel,
                            line=line,
                            col=0,
                            rule=self.rule,
                            message=(
                                f"docs reference {cls}.{attr}, which does "
                                f"not exist on the {cls} dataclass — "
                                "stats-field drift"
                            ),
                        )
                    )
        return out

    def _check_metric_docs(self, project: Project) -> List[Violation]:
        """Registered metric names <-> the docs/observability.md catalog."""
        declared = _collect_metric_names(project)
        if not declared:
            return []  # fixture projects without telemetry
        out: List[Violation] = []
        doc_path = Path(project.root) / _METRIC_DOC
        try:
            text = doc_path.read_text(encoding="utf-8")
        except OSError:
            text = ""
        documented = {
            (match.group(1), match.start(1))
            for match in _DOC_METRIC.finditer(text)
        }
        documented_names = {name for name, _ in documented}
        for name in sorted(declared):
            if name in documented_names:
                continue
            out.append(
                Violation(
                    file=declared[name].rel,
                    line=1,
                    col=0,
                    rule=self.rule,
                    message=(
                        f"metric {name} is registered here but missing "
                        f"from the {_METRIC_DOC} catalog — metric-name "
                        "drift"
                    ),
                )
            )
        for name, start in sorted(documented):
            base = name
            for suffix in _SERIES_SUFFIXES:
                if name.endswith(suffix) and name[: -len(suffix)] in declared:
                    base = name[: -len(suffix)]
                    break
            if base in declared:
                continue
            out.append(
                Violation(
                    file=_METRIC_DOC,
                    line=text.count("\n", 0, start) + 1,
                    col=0,
                    rule=self.rule,
                    message=(
                        f"{_METRIC_DOC} documents metric {name}, which is "
                        "never registered in the linted sources — "
                        "metric-name drift"
                    ),
                )
            )
        return out
