"""Tests for the command-line report generator."""

import pytest

from repro.cli import build_parser, main


def test_parser_defaults():
    args = build_parser().parse_args([])
    assert args.experiments == []
    assert args.seed == 0


def test_main_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        main(["table9"])


def test_cli_table2_output(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out
    assert "BRAM" in out
    assert "365.5" in out


def test_cli_table1_with_seed(capsys):
    assert main(["--seed", "1", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "shapenet" in out


def test_cli_multiple_experiments(capsys):
    assert main(["table1", "table2"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out and "Table II" in out
    assert "Table III" not in out


def test_cli_stream_subcommand(capsys):
    assert main(
        ["stream", "--frames", "3", "--resolution", "48", "--points", "2000",
         "--step-rad", "0", "--noise", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "streamed 3 frames" in out
    assert "rulebook hit rate" in out
    assert "matching seconds" in out
    assert "scatter seconds" in out
    # Static scene: frames after the first hit the session's cache.
    assert "(2 hits, 1 misses)" in out


def test_cli_stream_rejects_bad_frames():
    with pytest.raises(SystemExit):
        main(["stream", "--frames", "0"])


def test_cli_stream_help_does_not_run_experiments(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["stream", "--help"])
    assert excinfo.value.code == 0
    assert "InferenceSession" in capsys.readouterr().out


def test_cli_stream_backend_flag(capsys):
    assert main(
        ["stream", "--frames", "2", "--resolution", "48", "--points", "2000",
         "--step-rad", "0", "--noise", "0", "--backend", "scipy"]
    ) == 0
    assert "streamed 2 frames" in capsys.readouterr().out


def test_cli_stream_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["stream", "--frames", "1", "--backend", "cuda"])


def test_cli_unknown_backend_fails_fast_with_available_list(capsys):
    """Satellite bugfix: an unknown --backend dies at the command line
    with the registered-backend list in the message, instead of a late
    registry error from inside session construction."""
    for subcommand in ("stream", "serve"):
        with pytest.raises(SystemExit) as excinfo:
            main([subcommand, "--backend", "cuda"])
        assert excinfo.value.code == 2  # argparse usage error, not a traceback
        err = capsys.readouterr().err
        assert "unknown execution backend 'cuda'" in err
        assert "'numpy'" in err and "'scipy'" in err


def test_cli_backend_accepts_late_registered_backends(capsys):
    """The choice set must come from the live registry, not be frozen at
    parser build time."""
    from repro.engine import NumpyFusedBackend, register_backend

    class AliasBackend(NumpyFusedBackend):
        name = "cli-test-alias"

    register_backend("cli-test-alias", AliasBackend, overwrite=True)
    assert main(
        ["stream", "--frames", "2", "--resolution", "24", "--points", "800",
         "--step-rad", "0", "--noise", "0", "--backend", "cli-test-alias"]
    ) == 0
    assert "streamed 2 frames" in capsys.readouterr().out


def test_cli_stream_drifting_scene(capsys):
    assert main(
        ["stream", "--frames", "4", "--resolution", "48", "--points", "2000",
         "--scene", "drifting", "--churn", "0.01"]
    ) == 0
    out = capsys.readouterr().out
    assert "drifting scene" in out
    assert "rulebook=miss" in out
    assert "patch" not in out


def test_cli_stream_delta_threshold_validation():
    # Rulebooks are never patched, so stream (like serve) takes no --delta.
    with pytest.raises(SystemExit):
        main(["stream", "--frames", "1", "--delta", "1.5"])
    with pytest.raises(SystemExit):
        main(["stream", "--frames", "1", "--delta"])
    with pytest.raises(SystemExit):
        main(["stream", "--frames", "1", "--scene", "drifting", "--churn", "2"])


def test_cli_serve_subcommand(capsys):
    assert main(
        ["serve", "--frames", "2", "--clients", "3", "--resolution", "24",
         "--points", "1500"]
    ) == 0
    out = capsys.readouterr().out
    assert "served 6 requests" in out
    assert "micro-batches" in out
    assert "bit-identical: yes" in out


def test_cli_serve_no_baseline(capsys):
    assert main(
        ["serve", "--frames", "1", "--clients", "2", "--resolution", "24",
         "--points", "1000", "--no-baseline"]
    ) == 0
    out = capsys.readouterr().out
    assert "serve throughput" in out
    assert "baseline" not in out


def test_cli_serve_rejects_bad_arguments():
    with pytest.raises(SystemExit):
        main(["serve", "--frames", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--clients", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--max-pending", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--deadline-ms", "0"])


def test_cli_serve_backpressure_flags(capsys):
    assert main(
        ["serve", "--frames", "1", "--clients", "2", "--resolution", "24",
         "--points", "1000", "--no-baseline", "--max-pending", "64",
         "--deadline-ms", "60000"]
    ) == 0
    out = capsys.readouterr().out
    assert "rejected:           0 (0 overload, 0 deadline)" in out


def test_cli_serve_help_mentions_micro_batching(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0
    assert "micro-batching" in capsys.readouterr().out


def test_cli_misplaced_subcommand_hint(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "serve"])
    err = capsys.readouterr().err
    assert "'serve' is a subcommand and must come first" in err


def test_cli_points_subcommand(capsys):
    assert main(
        ["points", "--frames", "3", "--points", "2000",
         "--resolution", "48", "--seed", "1"]
    ) == 0
    out = capsys.readouterr().out
    assert "served 3 point-based frames at 48^3" in out
    assert "mapping cache:" in out
    assert "delta splicing:" in out
    assert "modeled mapping cost:" in out
    # The drifting self-query tables splice on warm frames.
    assert "delta-patch" in out


def test_cli_points_delta_zero_disables_splicing(capsys):
    assert main(
        ["points", "--frames", "2", "--points", "1500",
         "--resolution", "48", "--delta", "0"]
    ) == 0
    out = capsys.readouterr().out
    assert "0 patches, 0 rebuilds" in out


def test_cli_points_validation():
    with pytest.raises(SystemExit):
        main(["points", "--frames", "0"])
    with pytest.raises(SystemExit):
        main(["points", "--churn", "1.5"])
    with pytest.raises(SystemExit):
        main(["points", "--delta", "2.0"])


def test_cli_points_help_mentions_mapping(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["points", "--help"])
    assert excinfo.value.code == 0
    assert "mapping-ops subsystem" in capsys.readouterr().out


# ----------------------------------------------------------------------
# cluster serving: serve --cluster and the worker subcommand
# ----------------------------------------------------------------------
def test_cli_worker_help_mentions_ready_line(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["worker", "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "repro-worker" in out  # the readiness line (argparse wraps it)
    assert "--max-sessions" in out


def test_cli_worker_validation():
    with pytest.raises(SystemExit):
        main(["worker", "--port", "99999"])
    with pytest.raises(SystemExit):
        main(["worker", "--max-sessions", "0"])


def test_cli_worker_misplaced_subcommand_hint(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "worker"])
    err = capsys.readouterr().err
    assert "'worker' is a subcommand and must come first" in err


def test_cli_serve_cluster_validation():
    with pytest.raises(SystemExit):
        main(["serve", "--cluster", "0"])
    with pytest.raises(SystemExit):
        main(["serve", "--cluster", "2", "--churn", "1.5"])
    with pytest.raises(SystemExit):
        main(["serve", "--cluster", "2", "--backend", "scipy"])
    with pytest.raises(SystemExit):
        main(["serve", "--cluster", "2", "--delta", "0.5"])


def test_cli_serve_cluster_demo(capsys):
    assert main(
        ["serve", "--cluster", "2", "--frames", "2", "--clients", "2",
         "--resolution", "24", "--points", "800"]
    ) == 0
    out = capsys.readouterr().out
    assert "2-worker loopback cluster" in out
    assert "cluster routing" in out
    assert "groups rerouted" in out
    assert "bit-identical: yes" in out


def _corrupting_serve_frames(monkeypatch):
    """Wrap serve_frames so every served output is perturbed by +1."""
    import repro.runtime as runtime_mod

    real = runtime_mod.serve_frames

    def corrupting(requests, **kwargs):
        outputs, stats = real(requests, **kwargs)
        bad = [out.with_features(out.features + 1.0) for out in outputs]
        return bad, stats

    monkeypatch.setattr(runtime_mod, "serve_frames", corrupting)


def test_cli_serve_exits_nonzero_on_identity_mismatch(monkeypatch, capsys):
    _corrupting_serve_frames(monkeypatch)
    assert main(
        ["serve", "--frames", "1", "--clients", "2", "--resolution", "24",
         "--points", "800"]
    ) == 1
    assert "bit-identical: NO" in capsys.readouterr().out


def test_cli_serve_cluster_exits_nonzero_on_identity_mismatch(
    monkeypatch, capsys
):
    _corrupting_serve_frames(monkeypatch)
    assert main(
        ["serve", "--cluster", "1", "--frames", "1", "--clients", "2",
         "--resolution", "24", "--points", "800"]
    ) == 1
    assert "bit-identical: NO" in capsys.readouterr().out


def test_cli_serve_metrics_port_and_trace_dump(tmp_path, capsys):
    import json

    trace_path = tmp_path / "traces.json"
    assert main(
        ["serve", "--frames", "1", "--clients", "2", "--resolution", "24",
         "--points", "1000", "--no-baseline", "--metrics-port", "0",
         "--trace-dump", str(trace_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "metrics endpoint: http://127.0.0.1:" in out
    assert "traces dumped to:" in out
    traces = json.loads(trace_path.read_text())
    assert traces, "expected at least one micro-batch trace"
    names = [span["name"] for span in traces[0]["spans"]]
    assert names == ["queue-wait", "execute", "respond"]


def test_cli_serve_rejects_bad_metrics_port():
    with pytest.raises(SystemExit):
        main(["serve", "--metrics-port", "65536"])
    with pytest.raises(SystemExit):
        main(["serve", "--metrics-port", "-1"])
