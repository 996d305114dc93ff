"""Tests for ``repro.lint`` — the AST-based invariant analyzer.

Fixture projects are written into ``tmp_path`` at scope-matching
relative paths (``engine/*.py``, ``runtime/*.py``, ``cli.py``,
``docs/*.md``); nothing is imported or executed, so the deliberate
violations never have to be runnable code.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import run_lint
from repro.lint.baseline import compare, load_baseline, save_baseline
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parent.parent


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text), encoding="utf-8")
    return path


def rules_of(report, rule):
    return [v for v in report.violations if v.rule == rule]


# ---------------------------------------------------------------------------
# backend-contract


FULL_BACKEND = """\
class {name}:
    def execute(self, rulebook, feats, weights, num_outputs, stats=None):
        return 0

    def capabilities(self):
        return {{}}

    def close(self):
        return None
"""

SURFACE = (
    "execute",
    "capabilities",
    "close",
)


def test_backend_contract_passes_full_surface(tmp_path):
    write(
        tmp_path,
        "engine/good.py",
        FULL_BACKEND.format(name="GoodBackend")
        + '\n\nregister_backend("good", GoodBackend)\n',
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    assert rules_of(report, "backend-contract") == []


@pytest.mark.parametrize("method", SURFACE)
def test_backend_contract_fails_when_any_method_deleted(tmp_path, method):
    source = FULL_BACKEND.format(name="Partial")
    lines = source.splitlines(keepends=True)
    start = next(i for i, ln in enumerate(lines) if f"def {method}(" in ln)
    end = start + 1
    while end < len(lines) and (
        lines[end].startswith(" " * 8) or lines[end].strip() == ""
    ):
        end += 1
    gutted = "".join(lines[:start] + lines[end:])
    assert f"def {method}(" not in gutted
    write(
        tmp_path,
        "engine/partial.py",
        gutted + '\n\nregister_backend("partial", Partial)\n',
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    found = rules_of(report, "backend-contract")
    assert len(found) == 1
    assert f"{method}()" in found[0].message


def test_backend_contract_rejects_abstract_inherited_stub(tmp_path):
    base = (
        'class Base:\n'
        '    def capabilities(self):\n'
        '        """Docstring does not make it concrete."""\n'
        '        raise NotImplementedError\n'
        '\n\n'
    )
    derived = FULL_BACKEND.format(name="Derived").replace(
        "class Derived:", "class Derived(Base):"
    ).replace(
        "    def capabilities(self):\n        return {}\n\n", ""
    )
    write(
        tmp_path,
        "engine/stubbed.py",
        base + derived + '\n\nregister_backend("stubbed", Derived)\n',
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    found = rules_of(report, "backend-contract")
    assert len(found) == 1
    assert "abstract" in found[0].message
    assert "capabilities()" in found[0].message


def test_backend_contract_accepts_inherited_concrete_method(tmp_path):
    write(
        tmp_path,
        "engine/inherit.py",
        FULL_BACKEND.format(name="Base").replace("class Base:", "class Base:")
        + """\

        class Child(Base):
            def capabilities(self):
                return {"fused": True}


        register_backend("child", Child)
        """,
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    assert rules_of(report, "backend-contract") == []


def test_backend_contract_flags_signature_drift(tmp_path):
    bad = FULL_BACKEND.format(name="Misfit").replace(
        "def execute(self, rulebook, feats, weights, num_outputs, stats=None):",
        "def execute(self, rulebook, feats):",
    )
    write(
        tmp_path,
        "engine/misfit.py",
        bad + '\n\nregister_backend("misfit", Misfit)\n',
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    found = rules_of(report, "backend-contract")
    assert len(found) == 1
    assert "execute()" in found[0].message
    assert "not call-compatible" in found[0].message


def test_backend_contract_requires_stats_keyword(tmp_path):
    bad = FULL_BACKEND.format(name="NoStats").replace(
        "def execute(self, rulebook, feats, weights, num_outputs, stats=None):",
        "def execute(self, rulebook, feats, weights, num_outputs):",
    )
    write(
        tmp_path,
        "engine/nostats.py",
        bad + '\n\nregister_backend("nostats", NoStats)\n',
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    found = rules_of(report, "backend-contract")
    assert len(found) == 1
    assert "'stats'" in found[0].message


def test_backend_contract_duplicate_and_computed_keys(tmp_path):
    write(
        tmp_path,
        "engine/dupes.py",
        FULL_BACKEND.format(name="A")
        + FULL_BACKEND.format(name="B")
        + """\

        register_backend("same", A)
        register_backend("same", B)
        register_backend("same", B, overwrite=True)
        register_backend("ok_" + suffix, A)
        """,
    )
    report = run_lint(tmp_path, rules=["backend-contract"])
    messages = [v.message for v in rules_of(report, "backend-contract")]
    assert sum("registered more than once" in m for m in messages) == 1
    assert sum("string literal" in m for m in messages) == 1


# ---------------------------------------------------------------------------
# hot-path


def test_hot_path_flags_the_banned_patterns(tmp_path):
    write(
        tmp_path,
        "engine/hot.py",
        """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)
            return out


        def per_row(features):
            total = 0.0
            for i in range(features.shape[0]):
                total += features[i].sum()
            n = len(features)
            for i in range(n):
                total -= features[i].sum()
            return total


        def accumulate(chunks):
            parts = []
            uniq = set()
            for chunk in chunks:
                parts.append(chunk * 2)
                uniq.add(chunk.tobytes())
            return parts, uniq


        def narrow(features):
            return features.astype(np.float32)
        """,
    )
    report = run_lint(tmp_path, rules=["hot-path"])
    messages = [v.message for v in rules_of(report, "hot-path")]
    assert sum("np.add.at" in m for m in messages) == 1
    assert sum("per-element loop" in m for m in messages) == 2
    assert sum("accumulates into" in m for m in messages) == 1
    assert any("'parts', 'uniq'" in m for m in messages)
    assert sum("float32 narrowing" in m for m in messages) == 1


def test_hot_path_passes_vectorized_and_routed_code(tmp_path):
    write(
        tmp_path,
        "engine/cool.py",
        """\
        import numpy as np


        def fused_scatter(out, rows, contribution):
            out[rows] += contribution
            return out


        def routed_cast(self, stack):
            if self.precision == "float32":
                return stack.astype(np.float32)
            return stack


        def batched(stack, weights):
            return np.einsum("bnc,cd->bnd", stack, weights)
        """,
    )
    report = run_lint(tmp_path, rules=["hot-path"])
    assert rules_of(report, "hot-path") == []


def test_hot_path_scope_excludes_non_hot_modules(tmp_path):
    body = """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)
        """
    write(tmp_path, "nn/functional.py", body)
    write(tmp_path, "nn/rulebook.py", body)
    report = run_lint(tmp_path, rules=["hot-path"])
    found = rules_of(report, "hot-path")
    assert len(found) == 1
    assert found[0].file == "nn/rulebook.py"


# ---------------------------------------------------------------------------
# async-blocking


def test_async_blocking_flags_sleep_io_and_direct_compute(tmp_path):
    write(
        tmp_path,
        "runtime/loopy.py",
        """\
        import asyncio
        import time


        class Server:
            async def dispatch(self, tensors):
                time.sleep(0.1)
                with open("dump.bin") as fh:
                    fh.read()
                cfg = self.path.read_text()
                return self.session.run_batch(tensors)
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    messages = [v.message for v in rules_of(report, "async-blocking")]
    assert sum("time.sleep" in m for m in messages) == 1
    assert sum("open" in m and "file IO" in m for m in messages) == 1
    assert sum("read_text" in m for m in messages) == 1
    assert sum("session.run_batch" in m for m in messages) == 1
    assert all("'async def dispatch'" in m for m in messages)


def test_async_blocking_passes_executor_dispatch_and_sync_code(tmp_path):
    write(
        tmp_path,
        "runtime/clean.py",
        """\
        import asyncio
        import time


        class Server:
            async def dispatch(self, tensors):
                await asyncio.sleep(0.01)
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(
                    None, self.session.run_batch, tensors
                )

            def warmup(self, tensors):
                time.sleep(0.1)
                return self.session.run_batch(tensors)
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    assert rules_of(report, "async-blocking") == []


def test_async_blocking_ignores_nested_sync_defs(tmp_path):
    write(
        tmp_path,
        "runtime/nested.py",
        """\
        import time


        async def outer():
            def helper():
                time.sleep(0.1)
            return helper
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    assert rules_of(report, "async-blocking") == []


# ---------------------------------------------------------------------------
# spawn-safety


def test_spawn_safety_flags_lambdas_and_mutable_class_state(tmp_path):
    write(
        tmp_path,
        "engine/spawny.py",
        """\
        import pickle


        class SpecHolder:
            transform = lambda self, x: x + 1
            registry = {}

            def __init__(self):
                self.hook = lambda x: x * 2

            def bind(self):
                def local_step(x):
                    return x - 1
                self.step = local_step

            def ship(self, payload):
                return pickle.dumps((payload, lambda x: x))
        """,
    )
    report = run_lint(tmp_path, rules=["spawn-safety"])
    messages = [v.message for v in rules_of(report, "spawn-safety")]
    assert sum("lambda as a class attribute" in m for m in messages) == 1
    assert sum("mutable class attribute" in m for m in messages) == 1
    assert sum("stores a lambda on self" in m for m in messages) == 1
    assert sum("local function 'local_step'" in m for m in messages) == 1
    assert sum("pickle.dumps" in m for m in messages) == 1


def test_spawn_safety_passes_picklable_patterns(tmp_path):
    write(
        tmp_path,
        "engine/safe.py",
        """\
        import pickle
        from dataclasses import dataclass, field


        def module_level_step(x):
            return x - 1


        @dataclass
        class Spec:
            name: str = "numpy"
            shards: tuple = ()
            extras: list = field(default_factory=list)

            def bind(self):
                self.step = module_level_step

            def ship(self, payload):
                return pickle.dumps(payload)
        """,
    )
    report = run_lint(tmp_path, rules=["spawn-safety"])
    assert rules_of(report, "spawn-safety") == []


# ---------------------------------------------------------------------------
# stats-drift


STATS_MODULE = """\
    from dataclasses import dataclass, field


    @dataclass
    class SessionStats:
        frames_run: int = 0
        backend: str = ""

        @property
        def rulebook_hit_rate(self):
            return 0.0


    @dataclass
    class FrameResult:
        frame_id: int = 0
        nnz: int = 0


    @dataclass
    class StreamStats:
        frames: list = field(default_factory=list)

        @property
        def fps(self):
            return 0.0
"""


def test_stats_drift_flags_unknown_fields_in_cli(tmp_path):
    write(tmp_path, "stats.py", STATS_MODULE)
    write(
        tmp_path,
        "cli.py",
        """\
        def report():
            session = InferenceSession()
            s = session.stats
            print(s.frames_run, s.rulebook_hit_rate)
            print(s.bogus_counter)
            runner = StreamingRunner()
            stream = runner.run(None)
            for frame in stream.frames:
                print(frame.nnz, frame.imaginary_field)
        """,
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    messages = [v.message for v in rules_of(report, "stats-drift")]
    assert len(messages) == 2
    assert any("SessionStats.bogus_counter" in m for m in messages)
    assert any("FrameResult.imaginary_field" in m for m in messages)


def test_stats_drift_checks_docs_including_slash_shorthand(tmp_path):
    write(tmp_path, "stats.py", STATS_MODULE)
    write(tmp_path, "cli.py", "")
    write(
        tmp_path,
        "docs/observability.md",
        """\
        The runner reports `StreamStats.fps` per scene and
        `FrameResult.frame_id / nnz / phantom_field` per frame, while
        `SessionStats.made_up` never existed.
        """,
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    messages = [v.message for v in rules_of(report, "stats-drift")]
    assert len(messages) == 2
    assert any("FrameResult.phantom_field" in m for m in messages)
    assert any("SessionStats.made_up" in m for m in messages)


def test_stats_drift_checks_cluster_stats_in_docs_and_cli(tmp_path):
    write(
        tmp_path,
        "cluster.py",
        """\
        from dataclasses import dataclass


        @dataclass
        class ClusterStats:
            workers_lost: int = 0
            rejoins: int = 0
        """,
    )
    write(
        tmp_path,
        "cli.py",
        """\
        def report():
            backend = RemoteShardBackend()
            stats = backend.stats
            print(stats.workers_lost, stats.workers_found)
        """,
    )
    write(
        tmp_path,
        "docs/cluster.md",
        "Loss counts once in `ClusterStats.workers_lost / rejoins / evictions`.\n",
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    messages = [v.message for v in rules_of(report, "stats-drift")]
    assert len(messages) == 2
    assert any("ClusterStats.workers_found" in m for m in messages)
    assert any("ClusterStats.evictions" in m for m in messages)


def test_stats_drift_skips_classes_outside_the_project(tmp_path):
    write(
        tmp_path,
        "cli.py",
        """\
        def report():
            session = InferenceSession()
            s = session.stats
            print(s.anything_goes)
        """,
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    assert rules_of(report, "stats-drift") == []


METRICS_MODULE = """\
    class Thing:
        def __init__(self, registry):
            self._m_requests = registry.counter(
                "repro_demo_requests_total", "Requests."
            )
            self._m_lat = registry.histogram(
                "repro_demo_seconds", "Latency.", labels=("stage",)
            )
"""


def test_stats_drift_flags_undocumented_and_unregistered_metrics(tmp_path):
    write(tmp_path, "server.py", METRICS_MODULE)
    write(
        tmp_path,
        "docs/observability.md",
        """\
        The catalog: `repro_demo_requests_total` plus the phantom
        `repro_demo_ghost_total` nobody registers.
        """,
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    messages = [v.message for v in rules_of(report, "stats-drift")]
    assert len(messages) == 2
    assert any(
        "repro_demo_seconds is registered here but missing" in m
        for m in messages
    )
    assert any(
        "repro_demo_ghost_total, which is never registered" in m
        for m in messages
    )


def test_stats_drift_metric_catalog_in_sync_passes(tmp_path):
    write(tmp_path, "server.py", METRICS_MODULE)
    write(
        tmp_path,
        "docs/observability.md",
        """\
        `repro_demo_requests_total` counts requests and
        `repro_demo_seconds` times them; Prometheus expands the
        histogram into `repro_demo_seconds_bucket`,
        `repro_demo_seconds_sum` and `repro_demo_seconds_count`.
        """,
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    assert rules_of(report, "stats-drift") == []


def test_stats_drift_missing_catalog_flags_every_metric(tmp_path):
    write(tmp_path, "server.py", METRICS_MODULE)
    report = run_lint(tmp_path, rules=["stats-drift"])
    messages = [v.message for v in rules_of(report, "stats-drift")]
    assert len(messages) == 2
    assert all("metric-name drift" in m for m in messages)


def test_stats_drift_skips_metric_check_without_registrations(tmp_path):
    write(tmp_path, "plain.py", "x = 1\n")
    write(
        tmp_path,
        "docs/observability.md",
        "`repro_whatever_total` is only prose here.\n",
    )
    report = run_lint(tmp_path, rules=["stats-drift"])
    assert rules_of(report, "stats-drift") == []


# ---------------------------------------------------------------------------
# suppressions


def test_suppression_same_line_and_comment_above(tmp_path):
    write(
        tmp_path,
        "engine/suppressed.py",
        """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)  # repro-lint: disable=hot-path
            # repro-lint: disable=hot-path
            np.add.at(out, rows, contribution)
            np.add.at(out, rows, contribution)
            return out
        """,
    )
    report = run_lint(tmp_path, rules=["hot-path"])
    found = rules_of(report, "hot-path")
    assert len(found) == 1
    assert found[0].line == 8
    assert report.suppressed == 2


def test_suppression_wildcard_and_wrong_rule(tmp_path):
    write(
        tmp_path,
        "engine/mixed.py",
        """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)  # repro-lint: disable=*
            np.add.at(out, rows, contribution)  # repro-lint: disable=spawn-safety
            return out
        """,
    )
    report = run_lint(tmp_path, rules=["hot-path"])
    found = rules_of(report, "hot-path")
    assert len(found) == 1
    assert found[0].line == 6


def test_suppression_marker_inside_string_is_inert(tmp_path):
    write(
        tmp_path,
        "engine/stringy.py",
        """\
        import numpy as np

        MARKER = "# repro-lint: disable=hot-path"


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)
            return out
        """,
    )
    report = run_lint(tmp_path, rules=["hot-path"])
    assert len(rules_of(report, "hot-path")) == 1


def test_parse_errors_reported_not_fatal(tmp_path):
    write(tmp_path, "engine/broken.py", "def broken(:\n")
    write(
        tmp_path,
        "engine/fine.py",
        "import numpy as np\n\n\ndef f(out, rows, c):\n    np.add.at(out, rows, c)\n",
    )
    report = run_lint(tmp_path)
    parse = [v for v in report.violations if v.rule == "parse-error"]
    assert len(parse) == 1
    assert parse[0].file == "engine/broken.py"
    assert len(rules_of(report, "hot-path")) == 1


# ---------------------------------------------------------------------------
# baseline


def violation_file(tmp_path):
    return write(
        tmp_path,
        "engine/hot.py",
        """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)
            return out
        """,
    )


def test_baseline_roundtrip_and_new_violation_detection(tmp_path):
    violation_file(tmp_path)
    baseline = tmp_path / "results" / "lint_baseline.json"

    assert lint_main(["--root", str(tmp_path)]) == 1
    assert (
        lint_main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    assert (
        lint_main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 0
    )

    # A second instance of the same pattern exceeds the count budget.
    write(
        tmp_path,
        "engine/hot2.py",
        """\
        import numpy as np


        def scatter2(out, rows, contribution):
            np.add.at(out, rows, contribution)
            return out
        """,
    )
    assert (
        lint_main(["--root", str(tmp_path), "--baseline", str(baseline)]) == 1
    )


def test_baseline_count_budget_within_one_file(tmp_path):
    violation_file(tmp_path)
    report = run_lint(tmp_path, rules=["hot-path"])
    baseline = tmp_path / "baseline.json"
    save_baseline(baseline, report.violations)
    budget = load_baseline(baseline)

    comparison = compare(report.violations, budget)
    assert comparison.clean
    assert comparison.stale == {}

    # Duplicate the violation inside the same file: same fingerprint,
    # count 2 > budget 1 -> exactly one NEW finding.
    write(
        tmp_path,
        "engine/hot.py",
        """\
        import numpy as np


        def scatter(out, rows, contribution):
            np.add.at(out, rows, contribution)
            np.add.at(out, rows, contribution)
            return out
        """,
    )
    report2 = run_lint(tmp_path, rules=["hot-path"])
    comparison2 = compare(report2.violations, budget)
    assert len(comparison2.new) == 1


def test_baseline_reports_stale_entries(tmp_path):
    violation_file(tmp_path)
    report = run_lint(tmp_path, rules=["hot-path"])
    baseline = tmp_path / "baseline.json"
    save_baseline(baseline, report.violations)

    (tmp_path / "engine" / "hot.py").write_text(
        "def fixed():\n    return 0\n", encoding="utf-8"
    )
    report2 = run_lint(tmp_path, rules=["hot-path"])
    comparison = compare(report2.violations, load_baseline(baseline))
    assert comparison.clean
    assert sum(comparison.stale.values()) == 1


# ---------------------------------------------------------------------------
# CLI


def test_cli_json_schema(tmp_path, capsys):
    violation_file(tmp_path)
    code = lint_main(["--root", str(tmp_path), "--format", "json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {
        "root",
        "files_checked",
        "suppressed",
        "baseline",
        "baselined",
        "summary",
        "violations",
        "new_violations",
    }
    assert payload["summary"] == {"hot-path": 1}
    (violation,) = payload["violations"]
    assert set(violation) == {"file", "line", "col", "rule", "message"}
    assert violation["file"] == "engine/hot.py"
    assert payload["new_violations"] == payload["violations"]


def test_cli_output_file_and_rule_filter(tmp_path, capsys):
    violation_file(tmp_path)
    out = tmp_path / "report.json"
    code = lint_main(
        [
            "--root",
            str(tmp_path),
            "--rule",
            "spawn-safety",
            "--output",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0  # hot-path finding filtered out by --rule
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["violations"] == []


def test_cli_rejects_unknown_rule_and_missing_root(tmp_path, capsys):
    assert lint_main(["--root", str(tmp_path), "--rule", "nonsense"]) == 2
    assert lint_main(["--root", str(tmp_path / "absent")]) == 2
    capsys.readouterr()


def test_cli_list_rules(tmp_path, capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "backend-contract",
        "hot-path",
        "async-blocking",
        "spawn-safety",
        "stats-drift",
    ):
        assert rule in out


def test_repro_cli_dispatches_lint(tmp_path, capsys):
    from repro.cli import main as repro_main

    violation_file(tmp_path)
    assert repro_main(["lint", "--root", str(tmp_path)]) == 1
    assert "hot-path" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# lock-discipline


LOCKED_CLASS = """\
import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._values = {{}}

    def set(self, key, value):
        with self._lock:
            self._values[key] = value

    def reset(self):
        {reset_body}
"""


def test_lock_discipline_flags_unlocked_mutation(tmp_path):
    write(
        tmp_path,
        "obs/state.py",
        LOCKED_CLASS.format(reset_body="self._values.clear()"),
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    (found,) = rules_of(report, "lock-discipline")
    assert "self._values" in found.message
    assert "Registry.reset" in found.message


def test_lock_discipline_passes_locked_mutation_and_init(tmp_path):
    write(
        tmp_path,
        "obs/state.py",
        LOCKED_CLASS.format(
            reset_body="with self._lock:\n            self._values.clear()"
        ),
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    assert rules_of(report, "lock-discipline") == []


def test_lock_discipline_skips_lock_free_classes(tmp_path):
    write(
        tmp_path,
        "obs/state.py",
        """\
        class Accumulator:
            def __init__(self):
                self._values = {}

            def bump(self, key):
                self._values[key] = self._values.get(key, 0) + 1
        """,
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    assert rules_of(report, "lock-discipline") == []


HELPER_CLASS = """\
import threading


class Registry:
    def __init__(self):
        self._lock = threading.Lock()
        self._values = {{}}

    def set(self, key, value):
        with self._lock:
            self._values[key] = value

    def clear_all(self):
        with self._lock:
            self._wipe()

    def _wipe(self):
        self._values.clear()
{extra}"""


def test_lock_discipline_helper_reached_only_under_lock_passes(tmp_path):
    write(tmp_path, "obs/state.py", HELPER_CLASS.format(extra=""))
    report = run_lint(tmp_path, rules=["lock-discipline"])
    assert rules_of(report, "lock-discipline") == []


def test_lock_discipline_helper_with_unlocked_caller_fails(tmp_path):
    write(
        tmp_path,
        "obs/state.py",
        HELPER_CLASS.format(
            extra="\n    def sloppy(self):\n        self._wipe()\n"
        ),
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    (found,) = rules_of(report, "lock-discipline")
    assert "Registry._wipe" in found.message


def test_lock_discipline_sees_inherited_lock(tmp_path):
    write(
        tmp_path,
        "obs/base.py",
        """\
        import threading


        class Locked:
            def __init__(self):
                self._lock = threading.Lock()
                self._series = {}

            def record(self, key, value):
                with self._lock:
                    self._series[key] = value
        """,
    )
    write(
        tmp_path,
        "obs/child.py",
        """\
        from obs.base import Locked


        class Child(Locked):
            def drop(self, key):
                self._series.pop(key, None)
        """,
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    (found,) = rules_of(report, "lock-discipline")
    assert found.file == "obs/child.py"
    assert "Child.drop" in found.message


SIBLING_CLASSES = """\
import threading


class Metric:
    def __init__(self):
        self._lock = threading.Lock()


class Gauge(Metric):
    def __init__(self):
        super().__init__()
        self._values = {{}}

    def inc(self, key):
        with self._lock:
            self._values[key] = self._values.get(key, 0) + 1


class Counter(Metric):
    def __init__(self):
        super().__init__()
        self._values = {{}}

    def inc(self, key):
        {counter_body}
"""


@pytest.mark.parametrize(
    "counter_body, flagged",
    [
        ("self._values[key] = 1", True),
        ("with self._lock:\n            self._values[key] = 1", False),
    ],
)
def test_lock_discipline_guard_spans_sibling_subclasses(
    tmp_path, counter_body, flagged
):
    # Counter never locks _values itself: the lock's owner, Metric, is
    # shared with Gauge, whose locked write makes _values guarded.
    write(
        tmp_path,
        "obs/metrics.py",
        SIBLING_CLASSES.format(counter_body=counter_body),
    )
    report = run_lint(tmp_path, rules=["lock-discipline"])
    found = rules_of(report, "lock-discipline")
    assert [v.message.split(" mutates")[0] for v in found] == (
        ["self._values is guarded by self._lock but Counter.inc"]
        if flagged
        else []
    )


def test_lock_discipline_flags_unlocked_counter_inc(tmp_path):
    # The registry's own Counter.inc, its write moved out of the lock:
    # the counter race this rule exists for must not pass unflagged.
    source = (REPO_ROOT / "src" / "repro" / "obs" / "metrics.py").read_text()
    locked = (
        "        with self._lock:\n"
        "            self._values[key] = self._values.get(key, 0.0) + amount\n"
    )
    start = source.index("    def inc(", source.index("class Counter("))
    at = source.index(locked, start)
    unlocked = (
        source[:at]
        + "        self._values[key] = self._values.get(key, 0.0) + amount\n"
        + source[at + len(locked):]
    )
    (tmp_path / "obs").mkdir()
    (tmp_path / "obs" / "metrics.py").write_text(source)
    report = run_lint(tmp_path, rules=["lock-discipline"])
    assert rules_of(report, "lock-discipline") == []
    (tmp_path / "obs" / "metrics.py").write_text(unlocked)
    report = run_lint(tmp_path, rules=["lock-discipline"])
    (found,) = rules_of(report, "lock-discipline")
    assert "Counter.inc" in found.message


# ---------------------------------------------------------------------------
# wire-drift


WIRE_OK = """\
from enum import IntEnum


class MessageType(IntEnum):
    PREPARE = 1
    EXECUTE = 2
    OK = 3
    ERROR = 4


REQUEST_TYPES = (MessageType.PREPARE, MessageType.EXECUTE)
"""

WORKER_OK = """\
from runtime.wire import MessageType


def dispatch(frame):
    if frame.type == MessageType.PREPARE:
        return 1
    if frame.type == MessageType.EXECUTE:
        return 2
    return None
"""

CLUSTER_OK = """\
from runtime.wire import MessageType


def send_all(link, payload):
    link.request(MessageType.PREPARE, payload)
    link.request(MessageType.EXECUTE, payload)
"""

DOC_OK = """\
# cluster

| type | payload |
|------|---------|
| `PREPARE` | `{}` |
| `EXECUTE` | `{}` |
| `OK` | reply |
| `ERROR` | reply |
"""


def write_wire_project(tmp_path, wire=WIRE_OK, worker=WORKER_OK,
                       cluster=CLUSTER_OK, doc=DOC_OK):
    write(tmp_path, "runtime/wire.py", wire)
    write(tmp_path, "runtime/worker.py", worker)
    write(tmp_path, "runtime/cluster.py", cluster)
    write(tmp_path, "docs/cluster.md", doc)


def test_wire_drift_closed_protocol_passes(tmp_path):
    write_wire_project(tmp_path)
    report = run_lint(tmp_path, rules=["wire-drift"])
    assert rules_of(report, "wire-drift") == []


def test_wire_drift_missing_handler_branch_fails(tmp_path):
    write_wire_project(
        tmp_path,
        worker=WORKER_OK.replace(
            "    if frame.type == MessageType.EXECUTE:\n        return 2\n",
            "",
        ),
    )
    report = run_lint(tmp_path, rules=["wire-drift"])
    (found,) = rules_of(report, "wire-drift")
    assert found.file == "runtime/wire.py"
    assert "EXECUTE has no handler branch" in found.message


def test_wire_drift_missing_sender_fails(tmp_path):
    write_wire_project(
        tmp_path,
        cluster=CLUSTER_OK.replace(
            "    link.request(MessageType.PREPARE, payload)\n", ""
        ),
    )
    report = run_lint(tmp_path, rules=["wire-drift"])
    (found,) = rules_of(report, "wire-drift")
    assert "PREPARE is never sent" in found.message


def test_wire_drift_doc_table_both_directions(tmp_path):
    write_wire_project(
        tmp_path,
        doc=DOC_OK.replace("| `EXECUTE` | `{}` |\n", "")
        + "| `RETIRED` | gone |\n",
    )
    report = run_lint(tmp_path, rules=["wire-drift"])
    found = rules_of(report, "wire-drift")
    messages = sorted(v.message for v in found)
    assert len(found) == 2
    assert "EXECUTE is missing from the docs/cluster.md" in messages[0]
    assert "`RETIRED`" in messages[1]
    assert found[1].file == "docs/cluster.md" or found[0].file == "docs/cluster.md"


def test_wire_drift_unknown_member_reference_fails(tmp_path):
    write_wire_project(
        tmp_path,
        worker=WORKER_OK
        + "\n\ndef extra(frame):\n"
        "    return frame.type == MessageType.RETIRED\n",
    )
    report = run_lint(tmp_path, rules=["wire-drift"])
    found = rules_of(report, "wire-drift")
    assert any(
        "MessageType.RETIRED is referenced but not defined" in v.message
        for v in found
    )


def test_wire_drift_skips_projects_without_wire(tmp_path):
    write(tmp_path, "runtime/worker.py", "def dispatch(frame):\n    return 1\n")
    report = run_lint(tmp_path, rules=["wire-drift"])
    assert rules_of(report, "wire-drift") == []


def test_wire_drift_reply_only_types_need_no_handler(tmp_path):
    # without REQUEST_TYPES the rule falls back to members minus OK/ERROR
    write_wire_project(
        tmp_path,
        wire=WIRE_OK.replace(
            "REQUEST_TYPES = (MessageType.PREPARE, MessageType.EXECUTE)\n",
            "",
        ),
    )
    report = run_lint(tmp_path, rules=["wire-drift"])
    assert rules_of(report, "wire-drift") == []


# ---------------------------------------------------------------------------
# metric-discipline


METRIC_SERVER = """\
import asyncio


class Server:
    def __init__(self, registry):
        self._stop_event = asyncio.Event()
        self._m_requests = registry.counter(
            "repro_requests_total", "requests", labels=("route",)
        )
        self._m_depth = registry.gauge("repro_depth", "queue depth")
{extra_decl}
    def handle(self, route):
        self._m_requests.inc(route=route)
        depth = self._m_depth
        depth.set(3.0)

    def stop(self):
        self._stop_event.set()
{extra_body}"""


def metric_project(tmp_path, extra_decl="", extra_body=""):
    write(
        tmp_path,
        "runtime/server.py",
        METRIC_SERVER.format(extra_decl=extra_decl, extra_body=extra_body),
    )
    return run_lint(tmp_path, rules=["metric-discipline"])


def test_metric_discipline_live_metrics_pass(tmp_path):
    report = metric_project(tmp_path)
    assert rules_of(report, "metric-discipline") == []


def test_metric_discipline_flags_dead_metric(tmp_path):
    report = metric_project(
        tmp_path,
        extra_decl=(
            '        self._m_dead = registry.counter('
            '"repro_dead_total", "never touched")\n'
        ),
    )
    (found,) = rules_of(report, "metric-discipline")
    assert "repro_dead_total is declared but never" in found.message


def test_metric_discipline_flags_label_mismatch(tmp_path):
    report = metric_project(
        tmp_path,
        extra_body=(
            "\n    def mislabeled(self):\n"
            "        self._m_requests.inc(verb=1)\n"
        ),
    )
    (found,) = rules_of(report, "metric-discipline")
    assert "declared with labels (route)" in found.message
    assert "(verb)" in found.message


def test_metric_discipline_star_kwargs_skip_label_check(tmp_path):
    report = metric_project(
        tmp_path,
        extra_body=(
            "\n    def forward(self, **labels):\n"
            "        self._m_requests.inc(**labels)\n"
        ),
    )
    assert rules_of(report, "metric-discipline") == []


def test_metric_discipline_reader_counter_is_live(tmp_path):
    report = metric_project(
        tmp_path,
        extra_decl=(
            '        registry.counter("repro_frames_total", "frames",\n'
            "                         read=lambda: self.frames)\n"
        ),
    )
    assert rules_of(report, "metric-discipline") == []


def test_metric_discipline_reader_counter_labels_still_checked(tmp_path):
    report = metric_project(
        tmp_path,
        extra_decl=(
            "        self._m_hits = registry.counter(\n"
            '            "repro_hits_total", "hits", labels=("cache",),\n'
            "            read=lambda: {}\n"
            "        )\n"
        ),
        extra_body=(
            "\n    def plan_hits(self):\n"
            '        return self._m_hits.value(result="hit")\n'
        ),
    )
    (found,) = rules_of(report, "metric-discipline")
    assert "repro_hits_total declared with labels (cache)" in found.message


def test_metric_discipline_flags_unreachable_only_mutation(tmp_path):
    report = metric_project(
        tmp_path,
        extra_decl=(
            '        self._m_ghost = registry.counter('
            '"repro_ghost_total", "x")\n'
        ),
        extra_body=(
            "\n    def _never_called(self):\n"
            "        self._m_ghost.inc()\n"
        ),
    )
    (found,) = rules_of(report, "metric-discipline")
    assert "repro_ghost_total is only mutated in code unreachable" in (
        found.message
    )


def test_metric_discipline_callback_mention_keeps_target_reachable(tmp_path):
    report = metric_project(
        tmp_path,
        extra_decl=(
            '        self._m_tick = registry.counter("repro_tick_total", "x")\n'
        ),
        extra_body=(
            "\n    def _on_tick(self):\n"
            "        self._m_tick.inc()\n"
            "\n    def install(self, loop):\n"
            "        loop.call_soon(self._on_tick)\n"
        ),
    )
    assert rules_of(report, "metric-discipline") == []


def test_metric_discipline_chained_use_counts(tmp_path):
    write(
        tmp_path,
        "obs/boot.py",
        'def boot(registry):\n'
        '    registry.counter("repro_boot_total", "boots").inc()\n',
    )
    report = run_lint(tmp_path, rules=["metric-discipline"])
    assert rules_of(report, "metric-discipline") == []


def test_metric_discipline_skips_projects_without_metrics(tmp_path):
    write(
        tmp_path,
        "runtime/plain.py",
        "def noop(event):\n    event.set()\n",
    )
    report = run_lint(tmp_path, rules=["metric-discipline"])
    assert rules_of(report, "metric-discipline") == []


# ---------------------------------------------------------------------------
# async-blocking, transitive


def test_async_blocking_transitive_chain_flagged_with_path(tmp_path):
    write(
        tmp_path,
        "runtime/loop.py",
        """\
        import time


        def slow_helper():
            time.sleep(0.1)


        def middle():
            slow_helper()


        async def tick():
            middle()
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    (found,) = rules_of(report, "async-blocking")
    assert "'async def tick'" in found.message
    assert "time.sleep" in found.message
    assert "middle -> slow_helper" in found.message


def test_async_blocking_executor_seam_is_not_a_call_edge(tmp_path):
    write(
        tmp_path,
        "runtime/loop.py",
        """\
        import time


        def middle():
            time.sleep(0.1)


        async def ok(loop):
            await loop.run_in_executor(None, middle)


        async def also_ok():
            await asyncio.to_thread(middle)
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    assert rules_of(report, "async-blocking") == []


def test_async_blocking_transitive_crosses_modules(tmp_path):
    write(
        tmp_path,
        "runtime/io_helpers.py",
        "def write_report(path, text):\n    path.write_text(text)\n",
    )
    write(
        tmp_path,
        "runtime/front.py",
        """\
        from runtime.io_helpers import write_report


        async def save(path):
            write_report(path, "x")
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    (found,) = rules_of(report, "async-blocking")
    assert found.file == "runtime/front.py"
    assert "Path.write_text" in found.message


def test_async_blocking_dynamic_calls_degrade_to_unknown(tmp_path):
    write(
        tmp_path,
        "runtime/dyn.py",
        """\
        async def dispatch(handlers, key):
            handlers[key]()
            getattr(handlers, key)()
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    assert rules_of(report, "async-blocking") == []


def test_async_blocking_async_callees_carry_their_own_findings(tmp_path):
    write(
        tmp_path,
        "runtime/nested.py",
        """\
        import time


        async def inner():
            time.sleep(1)


        async def outer():
            await inner()
        """,
    )
    report = run_lint(tmp_path, rules=["async-blocking"])
    found = rules_of(report, "async-blocking")
    assert len(found) == 1  # inner's direct finding; outer not re-blamed
    assert "'async def inner'" in found[0].message


# ---------------------------------------------------------------------------
# suppression binding on decorated defs


from repro.lint.base import Checker, register_checker  # noqa: E402
import ast as _ast  # noqa: E402


@register_checker
class _ProbeDefChecker(Checker):
    """Test-only probe reporting one finding at every ``def`` line; its
    scope glob matches no real source tree."""

    rule = "probe-def"
    description = "test-only probe: one finding per def line"
    scope = ("*probe_pkg/*.py",)

    def check(self, project):
        out = []
        for source in self.scoped_files(project):
            for node in _ast.walk(source.tree):
                if isinstance(node, _ast.FunctionDef):
                    out.append(
                        self.violation(source, node, f"def {node.name}")
                    )
        return out


def test_suppression_on_decorator_line_covers_the_def_line(tmp_path):
    write(
        tmp_path,
        "probe_pkg/dec.py",
        """\
        import functools


        @functools.lru_cache(maxsize=None)  # repro-lint: disable=probe-def
        def cached():
            return 1


        # repro-lint: disable=probe-def
        @functools.lru_cache(maxsize=None)
        @functools.lru_cache(maxsize=None)
        def above():
            return 2


        @functools.lru_cache(maxsize=None)
        def flagged():
            return 3
        """,
    )
    report = run_lint(tmp_path, rules=["probe-def"])
    found = rules_of(report, "probe-def")
    assert [v.message for v in found] == ["def flagged"]
    assert report.suppressed == 2


def test_suppression_undecorated_def_unchanged(tmp_path):
    write(
        tmp_path,
        "probe_pkg/plain.py",
        """\
        # repro-lint: disable=probe-def
        def above():
            return 1


        def flagged():
            return 2
        """,
    )
    report = run_lint(tmp_path, rules=["probe-def"])
    found = rules_of(report, "probe-def")
    assert [v.message for v in found] == ["def flagged"]


# ---------------------------------------------------------------------------
# SARIF, --changed, cache


def test_cli_sarif_format_and_file(tmp_path, capsys):
    violation_file(tmp_path)
    sarif_path = tmp_path / "out" / "report.sarif"
    code = lint_main(
        [
            "--root",
            str(tmp_path),
            "--format",
            "sarif",
            "--sarif",
            str(sarif_path),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
    assert {"hot-path", "wire-drift", "lock-discipline",
            "metric-discipline", "async-blocking"} <= rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "hot-path"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "engine/hot.py"
    assert location["region"]["startLine"] >= 1
    assert json.loads(sarif_path.read_text(encoding="utf-8")) == payload


def test_cli_sarif_marks_baselined_findings_as_notes(tmp_path, capsys):
    violation_file(tmp_path)
    baseline = tmp_path / "baseline.json"
    assert (
        lint_main(
            [
                "--root",
                str(tmp_path),
                "--baseline",
                str(baseline),
                "--update-baseline",
            ]
        )
        == 0
    )
    capsys.readouterr()
    code = lint_main(
        [
            "--root",
            str(tmp_path),
            "--baseline",
            str(baseline),
            "--format",
            "sarif",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["runs"][0]["results"]
    assert result["level"] == "note"


def _git(tmp_path, *args):
    import subprocess

    proc = subprocess.run(
        ("git", "-C", str(tmp_path)) + args,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_changed_scopes_to_dependents(tmp_path, capsys):
    write(tmp_path, "engine/util.py", "def helper():\n    return 1\n")
    write(
        tmp_path,
        "engine/hot.py",
        """\
        import numpy as np

        from engine.util import helper


        def scatter(out, rows, contribution):
            helper()
            np.add.at(out, rows, contribution)
            return out
        """,
    )
    write(tmp_path, "engine/unrelated.py", "VALUE = 1\n")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(
        tmp_path,
        "-c", "user.email=t@t", "-c", "user.name=t",
        "commit", "-qm", "seed",
    )

    # touching an unrelated file hides hot.py's finding from the report
    write(tmp_path, "engine/unrelated.py", "VALUE = 2\n")
    assert lint_main(["--root", str(tmp_path), "--changed", "HEAD"]) == 0
    out = capsys.readouterr().out
    assert "scoped to" in out

    # touching a module hot.py imports pulls hot.py back into scope
    write(tmp_path, "engine/util.py", "def helper():\n    return 2\n")
    assert lint_main(["--root", str(tmp_path), "--changed", "HEAD"]) == 1
    assert "hot-path" in capsys.readouterr().out


def test_cli_changed_rejects_bad_ref(tmp_path, capsys):
    violation_file(tmp_path)
    _git(tmp_path, "init", "-q")
    code = lint_main(
        ["--root", str(tmp_path), "--changed", "no-such-ref"]
    )
    capsys.readouterr()
    assert code == 2


def test_cache_warm_run_reports_identically(tmp_path):
    from repro.lint.cache import LintCache

    violation_file(tmp_path)
    write(
        tmp_path,
        "probe_pkg/dec.py",
        "# repro-lint: disable=probe-def\ndef above():\n    return 1\n",
    )
    cache_path = tmp_path / "cache.json"
    cold = run_lint(tmp_path, cache=LintCache(cache_path))
    assert cache_path.is_file()
    warm = run_lint(tmp_path, cache=LintCache(cache_path))
    assert [v.format() for v in warm.violations] == [
        v.format() for v in cold.violations
    ]
    assert warm.suppressed == cold.suppressed

    # editing a file invalidates only its entry; results stay correct
    write(
        tmp_path,
        "probe_pkg/dec.py",
        "def above():\n    return 1\n",
    )
    edited = run_lint(
        tmp_path, rules=["probe-def"], cache=LintCache(cache_path)
    )
    assert [v.message for v in rules_of(edited, "probe-def")] == [
        "def above"
    ]


def test_cache_corruption_degrades_to_recompute(tmp_path):
    from repro.lint.cache import LintCache

    violation_file(tmp_path)
    cache_path = tmp_path / "cache.json"
    cache_path.write_text("{not json", encoding="utf-8")
    report = run_lint(tmp_path, cache=LintCache(cache_path))
    assert len(rules_of(report, "hot-path")) == 1


# ---------------------------------------------------------------------------
# the real repo


def test_repo_is_clean_against_committed_baseline():
    code = lint_main(
        [
            "--root",
            str(REPO_ROOT),
            "--baseline",
            str(REPO_ROOT / "results" / "lint_baseline.json"),
            "--no-cache",
        ]
    )
    assert code == 0
