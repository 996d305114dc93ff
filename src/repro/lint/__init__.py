"""``repro.lint`` — AST-based invariant analyzer for this stack.

Eight repo-specific rules (``backend-contract``, ``hot-path``,
``async-blocking``, ``spawn-safety``, ``stats-drift``,
``lock-discipline``, ``wire-drift``, ``metric-discipline``) over a
small checker framework with a project symbol table / call graph for
the interprocedural ones (``spawn-safety`` guards the pickled
``(net, precision, quantization)`` spec blob the cluster tier ships to
its workers); run via ``python -m repro lint``.  See
``docs/lint.md`` for the architecture, rule catalog, and the
suppression/baseline workflow.
"""

from repro.lint.base import (
    Checker,
    LintReport,
    Project,
    SourceFile,
    Violation,
    all_checkers,
    register_checker,
    run_lint,
)
from repro.lint.baseline import (
    BaselineComparison,
    compare,
    load_baseline,
    save_baseline,
)

__all__ = [
    "Checker",
    "LintReport",
    "Project",
    "SourceFile",
    "Violation",
    "all_checkers",
    "register_checker",
    "run_lint",
    "BaselineComparison",
    "compare",
    "load_baseline",
    "save_baseline",
]
