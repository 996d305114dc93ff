"""Checker framework of ``repro.lint`` — the repo-specific analyzer.

The stack carries contracts that ordinary linters cannot see: the
:class:`~repro.engine.backend.ExecutionBackend` surface behind the
registry, the bit-identity dtype discipline of the fused/CSR hot paths,
the non-blocking rule inside :class:`~repro.runtime.server.SessionServer`
coroutines, and pickle safety of the cluster spec blob.  This module
provides the machinery those rules plug into:

* :class:`Violation` — one finding (file, line, rule id, message);
* :class:`SourceFile` / :class:`Project` — parsed source set with
  ``# repro-lint: disable=RULE`` suppression bookkeeping;
* :class:`Checker` — rule base class with path scoping, registered via
  :func:`register_checker` into a rule registry;
* :func:`run_lint` — load, check, filter suppressions, report.

Checkers are pure :mod:`ast` consumers: nothing is imported or executed,
so fixture modules with deliberate violations can be linted without
being importable.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.lint.cache import LintCache
    from repro.lint.graph import ModuleSummary, ProjectGraph


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what is wrong.

    ``message`` must be stable across unrelated edits (no line numbers or
    volatile state inside it) — the baseline matches violations on
    ``(file, rule, message)``, so a message that shifts with its line
    would make every baselined finding reappear as new.
    """

    file: str  # posix path relative to the lint root
    line: int
    col: int
    rule: str
    message: str

    @property
    def fingerprint(self) -> Tuple[str, str, str]:
        """Baseline identity — deliberately excludes the line number."""
        return (self.file, self.rule, self.message)

    def format(self) -> str:
        return f"{self.file}:{self.line}:{self.col}: [{self.rule}] {self.message}"


_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*disable=([A-Za-z0-9_*,\- ]+)")

_NON_CODE_TOKENS = frozenset(
    (
        tokenize.COMMENT,
        tokenize.NEWLINE,
        tokenize.NL,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENDMARKER,
        tokenize.ENCODING,
    )
)


def _extract_suppressions(
    text: str,
) -> Tuple[Dict[int, Set[str]], Dict[int, Set[str]]]:
    """Map ``# repro-lint: disable=RULE[,RULE]`` comments to line numbers.

    Returns ``(same_line, comment_only)``: rules suppressed on the line
    they appear on, and rules on comment-only lines (which suppress the
    *next* line).  Tokenized rather than regex-scanned so the marker
    inside a string literal does not suppress anything.
    """
    same_line: Dict[int, Set[str]] = {}
    code_lines: Set[int] = set()
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, SyntaxError, IndentationError):
        return {}, {}
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            match = _SUPPRESS_RE.search(tok.string)
            if match:
                rules = {
                    rule.strip()
                    for rule in match.group(1).split(",")
                    if rule.strip()
                }
                same_line.setdefault(tok.start[0], set()).update(rules)
        elif tok.type not in _NON_CODE_TOKENS:
            for line in range(tok.start[0], tok.end[0] + 1):
                code_lines.add(line)
    comment_only = {
        line: rules
        for line, rules in same_line.items()
        if line not in code_lines
    }
    return same_line, comment_only


def _decorated_span_rules(
    tree: ast.Module,
    same_line: Dict[int, Set[str]],
    comment_only: Dict[int, Set[str]],
) -> Dict[int, Set[str]]:
    """Bind suppressions on decorator lines to the whole decorated def.

    A ``def``/``class`` with decorators is one statement spanning from
    its first decorator line to the ``def`` line, so a marker anywhere in
    that span (or on a comment-only line directly above it) suppresses
    findings reported at any line of the span — in particular findings
    anchored at the ``def`` line, which a marker on the decorator line
    used to miss.
    """
    span_rules: Dict[int, Set[str]] = {}
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        if not node.decorator_list:
            continue
        start = min(dec.lineno for dec in node.decorator_list)
        end = node.lineno  # the def/class line itself
        rules: Set[str] = set()
        rules.update(comment_only.get(start - 1, ()))
        for line in range(start, end + 1):
            rules.update(same_line.get(line, ()))
        if not rules:
            continue
        for line in range(start, end + 1):
            span_rules.setdefault(line, set()).update(rules)
    return span_rules


@dataclass
class SourceFile:
    """One parsed source file plus its suppression map."""

    rel: str  # posix path relative to the project root
    path: Path
    text: str
    tree: ast.Module
    digest: str = ""  # sha256 of text — the cache key for derived data
    _same_line: Dict[int, Set[str]] = field(default_factory=dict)
    _comment_only: Dict[int, Set[str]] = field(default_factory=dict)
    _span_rules: Dict[int, Set[str]] = field(default_factory=dict)

    @classmethod
    def parse(
        cls,
        root: Path,
        path: Path,
        cache: Optional["LintCache"] = None,
    ) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        rel = path.relative_to(root).as_posix()
        tree = ast.parse(text, filename=str(path))
        payload = (
            cache.get_payload(rel, digest, "suppressions")
            if cache is not None
            else None
        )
        if payload is not None:
            same_line = _rules_from_payload(payload.get("same_line", {}))
            comment_only = _rules_from_payload(
                payload.get("comment_only", {})
            )
            span_rules = _rules_from_payload(payload.get("span_rules", {}))
        else:
            same_line, comment_only = _extract_suppressions(text)
            span_rules = _decorated_span_rules(tree, same_line, comment_only)
            if cache is not None:
                cache.put_payload(
                    rel,
                    digest,
                    "suppressions",
                    {
                        "same_line": _rules_to_payload(same_line),
                        "comment_only": _rules_to_payload(comment_only),
                        "span_rules": _rules_to_payload(span_rules),
                    },
                )
        return cls(
            rel=rel,
            path=path,
            text=text,
            tree=tree,
            digest=digest,
            _same_line=same_line,
            _comment_only=comment_only,
            _span_rules=span_rules,
        )

    def suppressed(self, line: int, rule: str) -> bool:
        """Whether ``rule`` is disabled on ``line``.

        A suppression comment applies to its own line, or — when it is
        the only thing on its line — to the line directly below it.  On
        a decorated ``def``/``class`` the whole decorator-to-def span is
        one statement: a marker on any of its lines covers all of them.
        ``disable=*`` silences every rule.
        """
        for rules in (
            self._same_line.get(line),
            self._comment_only.get(line - 1),
            self._span_rules.get(line),
        ):
            if rules and ("*" in rules or rule in rules):
                return True
        return False


def _rules_to_payload(rules: Dict[int, Set[str]]) -> Dict[str, List[str]]:
    return {str(line): sorted(names) for line, names in rules.items()}


def _rules_from_payload(payload: Dict[str, Any]) -> Dict[int, Set[str]]:
    out: Dict[int, Set[str]] = {}
    for line, names in payload.items():
        try:
            out[int(line)] = set(names)
        except (TypeError, ValueError):
            continue
    return out


class Project:
    """The analyzed source set: parsed files keyed by root-relative path.

    ``root`` anchors relative paths in reports and is where project-scope
    checkers find non-Python collateral (``docs/*.md`` for the
    stats-field drift rule).  Files that fail to parse are reported as
    ``parse-error`` violations instead of aborting the run.
    """

    def __init__(
        self, root: Path, cache: Optional["LintCache"] = None
    ) -> None:
        self.root = Path(root).resolve()
        self.files: Dict[str, SourceFile] = {}
        self.parse_errors: List[Violation] = []
        self.cache = cache
        self._summaries: Dict[str, Optional["ModuleSummary"]] = {}
        self._graph: Optional["ProjectGraph"] = None

    @classmethod
    def load(
        cls,
        root: Path,
        targets: Optional[Sequence[Path]] = None,
        cache: Optional["LintCache"] = None,
    ) -> "Project":
        project = cls(root, cache=cache)
        if targets is None:
            default = project.root / "src" / "repro"
            targets = [default if default.is_dir() else project.root]
        seen: Set[Path] = set()
        for target in targets:
            target = Path(target)
            if not target.is_absolute():
                target = project.root / target
            paths = (
                sorted(target.rglob("*.py"))
                if target.is_dir()
                else [target]
            )
            for path in paths:
                path = path.resolve()
                if path in seen:
                    continue
                seen.add(path)
                try:
                    rel = path.relative_to(project.root).as_posix()
                except ValueError:
                    rel = path.as_posix()
                try:
                    source = SourceFile.parse(project.root, path, cache=cache)
                except (SyntaxError, ValueError) as exc:
                    project.parse_errors.append(
                        Violation(
                            file=rel,
                            line=getattr(exc, "lineno", None) or 1,
                            col=0,
                            rule="parse-error",
                            message=(
                                "file could not be parsed: "
                                + str(
                                    exc.msg
                                    if isinstance(exc, SyntaxError)
                                    else exc
                                )
                            ),
                        )
                    )
                    continue
                except OSError as exc:
                    project.parse_errors.append(
                        Violation(
                            file=rel,
                            line=1,
                            col=0,
                            rule="parse-error",
                            message=f"file could not be read: {exc}",
                        )
                    )
                    continue
                source.rel = rel
                project.files[rel] = source
        return project

    def iter_files(self, patterns: Sequence[str]) -> Iterable[SourceFile]:
        """Files whose root-relative path matches any glob in ``patterns``."""
        for rel in sorted(self.files):
            if any(fnmatch(rel, pattern) for pattern in patterns):
                yield self.files[rel]

    def summary_for(self, rel: str) -> Optional["ModuleSummary"]:
        """The symbol/call summary of one file (cache-aware, memoized)."""
        if rel in self._summaries:
            return self._summaries[rel]
        from repro.lint import graph as graph_mod

        source = self.files.get(rel)
        summary: Optional["ModuleSummary"] = None
        if source is not None:
            payload = (
                self.cache.get_payload(rel, source.digest, "summary")
                if self.cache is not None
                else None
            )
            if payload is not None:
                summary = graph_mod.summary_from_payload(payload)
            if summary is None:  # cache miss or malformed payload
                summary = graph_mod.summarize(source)
                if self.cache is not None and summary is not None:
                    self.cache.put_payload(
                        rel,
                        source.digest,
                        "summary",
                        graph_mod.summary_to_payload(summary),
                    )
        self._summaries[rel] = summary
        return summary

    @property
    def graph(self) -> "ProjectGraph":
        """Lazily built project symbol table + call graph."""
        if self._graph is None:
            from repro.lint.graph import ProjectGraph

            self._graph = ProjectGraph(self)
        return self._graph


class Checker:
    """Base class of one lint rule.

    Subclasses set :attr:`rule` (the suppression / baseline identifier),
    :attr:`description`, and :attr:`scope` (root-relative path globs the
    rule applies to), then implement :meth:`check` returning the raw
    findings — suppression filtering and ordering are the runner's job.
    """

    rule: str = "abstract"
    description: str = ""
    #: fnmatch globs over root-relative posix paths.
    scope: Tuple[str, ...] = ("*.py",)

    def scoped_files(self, project: Project) -> Iterable[SourceFile]:
        return project.iter_files(self.scope)

    def check(self, project: Project) -> List[Violation]:
        raise NotImplementedError

    def violation(
        self, source: SourceFile, node: ast.AST, message: str
    ) -> Violation:
        return Violation(
            file=source.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.rule,
            message=message,
        )


_CHECKERS: Dict[str, Type[Checker]] = {}


def register_checker(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a :class:`Checker` to the rule registry."""
    if not cls.rule or cls.rule == "abstract":
        raise ValueError(f"checker {cls.__name__} must define a rule id")
    existing = _CHECKERS.get(cls.rule)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"lint rule {cls.rule!r} is already registered by "
            f"{existing.__name__}"
        )
    _CHECKERS[cls.rule] = cls
    return cls


def all_checkers() -> Tuple[Type[Checker], ...]:
    """Every registered checker class, sorted by rule id."""
    # Importing the package registers the built-in rules exactly once.
    import repro.lint.checkers  # noqa: F401

    return tuple(_CHECKERS[rule] for rule in sorted(_CHECKERS))


@dataclass
class LintReport:
    """Outcome of one :func:`run_lint` pass (before baseline comparison)."""

    root: str
    files_checked: int
    violations: List[Violation]
    suppressed: int
    #: when --changed scoping was applied: the changed files plus every
    #: transitive importer, i.e. the set findings were filtered to
    changed_scope: Optional[List[str]] = None

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts


def run_lint(
    root: Path,
    targets: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[str]] = None,
    changed: Optional[Sequence[str]] = None,
    cache: Optional["LintCache"] = None,
) -> LintReport:
    """Lint ``targets`` (default ``src/repro``) under ``root``.

    Returns every unsuppressed violation, sorted by file, line, and
    rule; parse failures surface as ``parse-error`` violations (never
    suppressible — a file that does not parse cannot carry a suppression
    comment that means anything).

    ``changed`` (root-relative posix paths, e.g. from ``git diff
    --name-only``) scopes the *report*, not the analysis: the whole
    project is still loaded and every checker still sees it — an
    interprocedural rule is only sound with the full picture — but
    reported findings are filtered to the changed files plus every
    transitive importer of a changed module.  ``cache`` is an optional
    :class:`~repro.lint.cache.LintCache`; it is flushed before return.
    """
    project = Project.load(Path(root), targets, cache=cache)
    checkers = [
        cls()
        for cls in all_checkers()
        if rules is None or cls.rule in rules
    ]
    kept: List[Violation] = list(project.parse_errors)
    suppressed = 0
    for checker in checkers:
        for violation in checker.check(project):
            source = project.files.get(violation.file)
            if source is not None and source.suppressed(
                violation.line, violation.rule
            ):
                suppressed += 1
            else:
                kept.append(violation)
    changed_scope: Optional[List[str]] = None
    if changed is not None:
        scope = project.graph.dependents_closure(changed)
        kept = [v for v in kept if v.file in scope]
        changed_scope = sorted(scope)
    kept.sort(key=lambda v: (v.file, v.line, v.rule, v.message))
    if cache is not None:
        cache.save()
    return LintReport(
        root=str(project.root),
        files_checked=len(project.files),
        violations=kept,
        suppressed=suppressed,
        changed_scope=changed_scope,
    )
