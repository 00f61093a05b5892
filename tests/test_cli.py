"""Command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_datasets_command(capsys):
    assert main(["datasets", "--profile", "smoke"]) == 0
    out = capsys.readouterr().out
    assert "Table II" in out and "kwai_food" in out


def test_train_command_baseline(capsys, tmp_path):
    ckpt = str(tmp_path / "model.npz")
    code = main(["train", "--dataset", "kwai_food", "--model", "sasrec",
                 "--profile", "smoke", "--epochs", "2", "--save", ckpt])
    assert code == 0
    out = capsys.readouterr().out
    assert "test:" in out
    assert (tmp_path / "model.npz").exists()


def test_train_command_pmmrec_text(capsys):
    code = main(["train", "--dataset", "kwai_food", "--model",
                 "pmmrec-text", "--profile", "smoke", "--epochs", "1"])
    assert code == 0
    assert "best val" in capsys.readouterr().out


def test_experiment_command_unknown(capsys):
    assert main(["experiment", "tableX"]) == 2


def test_experiment_command_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_serve_smoke_with_ivf_reports_fallback_at_tiny_scale(capsys):
    # At smoke scale (18 items, k=10) the k_near_catalog guard keeps
    # the ANN path off even with --ann-min-items 1: this covers the
    # fallback routing and its reporting, not engaged-IVF serving (the
    # CI serve-smoke job covers that on the paper-profile catalogue).
    code = main(["serve", "--scenarios", "kwai_food:sasrec",
                 "--profile", "smoke", "--retrieval", "ivf",
                 "--ann-min-items", "1", "--smoke"])
    assert code == 0
    out = capsys.readouterr().out
    assert "retrieval=ivf" in out and "PASS" in out
    assert "ann_batches=0" in out and "k_near_catalog" in out


def test_bench_serve_labels_fallback_honestly(capsys):
    # At smoke scale (18 items, k=10) the ANN path must fall back, and
    # the benchmark table must say so instead of claiming IVF numbers.
    code = main(["bench-serve", "--dataset", "kwai_food", "--model",
                 "sasrec", "--profile", "smoke", "--requests", "8",
                 "--batch", "4", "--retrieval", "ivf",
                 "--ann-min-items", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "retrieval=ivf" in out
    assert "batched-exact-fallback-top10" in out


@pytest.mark.parametrize("command", ["serve", "stream", "bench-serve",
                                     "bench-stream"])
def test_retrieval_choices_are_the_backend_kinds(command, capsys):
    from repro.serve.ann import ANN_KINDS
    assert ANN_KINDS == ("exact", "ivf")
    with pytest.raises(SystemExit):
        build_parser().parse_args([command, "--retrieval", "lsh"])
    assert ("invalid choice: 'lsh' (choose from 'exact', 'ivf')"
            in capsys.readouterr().err)


def test_bench_serve_labels_engaged_ann_backend(capsys):
    code = main(["bench-serve", "--dataset", "hm", "--model", "sasrec",
                 "--profile", "paper", "--requests", "8", "--batch", "4",
                 "--retrieval", "ivf", "--ann-min-items", "1",
                 "--nlist", "8", "--nprobe", "8"])
    assert code == 0
    assert "batched-ivf-top10" in capsys.readouterr().out


def test_transfer_command(capsys):
    code = main(["transfer", "--sources", "kwai", "--target", "kwai_food",
                 "--profile", "smoke", "--pretrain-epochs", "1",
                 "--finetune-epochs", "1", "--setting", "text_only"])
    assert code == 0
    out = capsys.readouterr().out
    assert "pre-training on kwai" in out
    assert "[text_only]" in out


def test_stream_serves_through_one_pool_worker_by_default():
    parser = build_parser()
    stream = parser.parse_args(["stream", "--scenarios", "hm:pmmrec"])
    serve = parser.parse_args(["serve", "--scenarios", "hm:pmmrec"])
    assert (stream.workers, serve.workers) == (1, 0)


def test_stream_refuses_a_scenario_without_an_index(capsys):
    code = main(["stream", "--profile", "smoke",
                 "--scenarios", "kwai_food:pmmrec-text,kwai_food:pop"])
    assert code == 2
    captured = capsys.readouterr()
    refusal = captured.err.strip().splitlines()
    assert len(refusal) == 1, captured.err       # one line, no traceback
    assert "kwai_food:pop" in refusal[0] and "--workers 0" in refusal[0]
    assert "worker pool:" not in captured.out


def test_serve_smoke_enables_self_monitoring_by_default(capsys):
    code = main(["serve", "--scenarios", "kwai_food:sasrec",
                 "--profile", "smoke", "--smoke"])
    assert code == 0
    out = capsys.readouterr().out
    assert "self-monitoring: sampling every 1s" in out
    assert "serve smoke: PASS" in out


def test_serve_smoke_no_monitor_flag(capsys):
    code = main(["serve", "--scenarios", "kwai_food:sasrec",
                 "--profile", "smoke", "--smoke", "--no-monitor"])
    assert code == 0
    out = capsys.readouterr().out
    assert "self-monitoring" not in out


@pytest.fixture()
def live_server():
    from repro.serve import ModelRegistry, RecommendationService, make_server
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, max_batch=8, cache_size=64)
    monitor = service.enable_monitoring(start=False)
    monitor.timeline.sample()
    server = make_server(service, port=0)
    server.start_background()
    yield server
    server.shutdown()
    server.server_close()
    service.close()


def test_top_once_renders_dashboard(capsys, live_server):
    assert main(["top", "--once", "--url", live_server.url]) == 0
    out = capsys.readouterr().out
    assert "repro top —" in out
    assert "health: OK" in out
    assert "monitoring: on" in out
    assert "\x1b[2J" not in out          # --once never clears the screen


def test_stats_command_tabulates_metrics(capsys, live_server):
    assert main(["stats", "--url", live_server.url]) == 0
    out = capsys.readouterr().out
    assert "repro_http_requests_total" in out


def test_stats_watch_reuses_refresh_loop(capsys, live_server, monkeypatch):
    import repro.obs.top as top
    monkeypatch.setattr(top.time, "sleep",
                        lambda _s: (_ for _ in ()).throw(KeyboardInterrupt))
    assert main(["stats", "--watch", "5", "--url", live_server.url]) == 0
    out = capsys.readouterr().out
    assert "repro_http_requests_total" in out
    assert "\x1b[2J" in out              # the clear-and-redraw loop ran
