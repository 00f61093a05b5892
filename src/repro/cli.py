"""Command-line interface for the PMMRec reproduction.

Eleven subcommands mirror the library's main workflows::

    repro datasets [--profile paper]            # Table II style statistics
    repro train --dataset kwai_food             # train one model
    repro transfer --sources bili,kwai --target hm_shoes --setting full
    repro experiment table4 [--profile paper]   # regenerate a paper table
    repro serve --scenarios kwai_food:sasrec,bili_food:pmmrec-text
    repro bench-serve --dataset kwai_food --model sasrec
    repro stream --scenarios kwai_food:pmmrec-text   # serve + learn online
    repro bench-stream --dataset hm --model pmmrec-text
    repro prof --dataset kwai_food --model pmmrec-text  # kernel profile
    repro stats --url http://127.0.0.1:8765 [--watch 2]  # tabulate /metrics
    repro top --url http://127.0.0.1:8765       # live health dashboard

Every subcommand is importable (``main(argv)``) for tests.
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PMMRec (ICDE'24) reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    datasets = sub.add_parser("datasets", help="print dataset statistics")
    datasets.add_argument("--profile", default=None,
                          help="scale profile (smoke/paper/full)")

    train = sub.add_parser("train", help="train a model on one dataset")
    train.add_argument("--dataset", required=True)
    train.add_argument("--model", default="pmmrec",
                       help="pmmrec, pmmrec-text, pmmrec-vision or a "
                            "baseline name (sasrec, morec++, ...)")
    train.add_argument("--profile", default=None)
    train.add_argument("--epochs", type=int, default=20)
    train.add_argument("--batch-size", type=int, default=24)
    train.add_argument("--lr", type=float, default=2e-3)
    train.add_argument("--dtype", default=None, choices=["float32", "float64"],
                       help="run the whole train/eval cycle at this "
                            "precision (default float64)")
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--save", default=None,
                       help="write a checkpoint to this path (npz)")

    transfer = sub.add_parser("transfer",
                              help="pre-train on sources, fine-tune on a target")
    transfer.add_argument("--sources", required=True,
                          help="comma-separated source datasets")
    transfer.add_argument("--target", required=True)
    transfer.add_argument("--setting", default="full",
                          help="full / item_encoders / user_encoder / "
                               "text_only / vision_only")
    transfer.add_argument("--profile", default=None)
    transfer.add_argument("--pretrain-epochs", type=int, default=10)
    transfer.add_argument("--finetune-epochs", type=int, default=12)
    transfer.add_argument("--seed", type=int, default=0)

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper table/figure")
    experiment.add_argument("name",
                            help="table1..table8 or figure3 (or 'all')")
    experiment.add_argument("--profile", default=None)
    experiment.add_argument("--workers", type=int, default=None)

    serve = sub.add_parser("serve",
                           help="run the online recommendation service")
    serve.add_argument("--scenarios", required=True,
                       help="comma-separated dataset:model[:checkpoint] "
                            "specs, e.g. kwai_food:sasrec,bili_food:pmmrec")
    serve.add_argument("--profile", default=None)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument("--dtype", default="float32",
                       choices=["float32", "float64"],
                       help="serving precision for models and indices")
    serve.add_argument("--max-batch", type=int, default=32,
                       help="micro-batch flush size")
    serve.add_argument("--max-wait-ms", type=float, default=2.0,
                       help="micro-batch flush timeout, in-process tier "
                            "only; pool workers (--workers N) run what "
                            "their pipe holds at once")
    serve.add_argument("--cache-size", type=int, default=1024,
                       help="result-cache entries per scenario, one cache "
                            "in the serving process for any --workers "
                            "(0 disables)")
    serve.add_argument("--no-exclude-seen", action="store_true",
                       help="allow recommending items already in a history")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=0,
                       help="worker processes for the multi-process serving "
                            "tier (0 = in-process, the default)")
    serve.add_argument("--smoke", action="store_true",
                       help="start in-process, answer one request per "
                            "scenario over HTTP, then exit (CI)")
    _add_retrieval_args(serve)
    _add_obs_args(serve)

    stream = sub.add_parser("stream",
                            help="serve with online continual learning "
                                 "(event ingestion + background "
                                 "fine-tuning + hot swaps)")
    stream.add_argument("--scenarios", required=True,
                        help="comma-separated dataset:model[:checkpoint] "
                             "specs (models must support incremental "
                             "training to stream)")
    stream.add_argument("--profile", default=None)
    stream.add_argument("--host", default="127.0.0.1")
    stream.add_argument("--port", type=int, default=8765)
    stream.add_argument("--dtype", default="float32",
                        choices=["float32", "float64"])
    stream.add_argument("--max-batch", type=int, default=32)
    stream.add_argument("--max-wait-ms", type=float, default=2.0,
                        help="micro-batch flush timeout, in-process tier "
                             "(--workers 0) only; pool workers run what "
                             "their pipe holds at once")
    stream.add_argument("--cache-size", type=int, default=1024)
    stream.add_argument("--no-exclude-seen", action="store_true")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--workers", type=int, default=1,
                        help="worker processes that run the model pass "
                             "(default 1); the learner, the HTTP front and "
                             "the result cache stay in this process, and "
                             "hot swaps fence every worker onto the new "
                             "generation. 0 serves in-process, behind the "
                             "--max-wait-ms batching timer")
    stream.add_argument("--stream-batch-size", type=int, default=16,
                        help="replayed histories per fine-tune step")
    stream.add_argument("--stream-lr", type=float, default=5e-4,
                        help="incremental-step learning rate")
    stream.add_argument("--steps-per-swap", type=int, default=8,
                        help="fine-tune steps between hot swaps")
    stream.add_argument("--min-events", type=int, default=8,
                        help="events that wake the fine-tune worker")
    stream.add_argument("--buffer-size", type=int, default=2048,
                        help="replay-buffer capacity (histories)")
    stream.add_argument("--checkpoint-dir", default=None,
                        help="write a versioned checkpoint per full swap")
    stream.add_argument("--event-log", default=None,
                        help="append accepted events to this JSONL file")
    stream.add_argument("--no-eval-gate", action="store_true",
                        help="publish swaps ungated (PR-5 behavior)")
    stream.add_argument("--gate-tolerance", type=float, default=0.1,
                        help="allowed held-out HR@10/NDCG@10 drop before "
                             "a swap is rejected")
    stream.add_argument("--eval-set-size", type=int, default=64,
                        help="validation examples frozen for the gate "
                             "at startup")
    stream.add_argument("--eval-holdout-frac", type=float, default=0.1,
                        help="probability an ingested event is held out "
                             "of training for gate evaluation")
    stream.add_argument("--replay-bias", type=float, default=0.0,
                        help="priority exponent for replay sampling "
                             "(0 = uniform)")
    stream.add_argument("--shadow-mode", action="store_true",
                        help="never publish weight updates; log candidate "
                             "ranks to --shadow-log instead")
    stream.add_argument("--shadow-log", default=None,
                        help="JSONL file for shadow-mode rank diffs")
    stream.add_argument("--smoke", action="store_true",
                        help="ingest events over HTTP, fine-tune, "
                             "hot-swap, verify, exit (CI)")
    _add_retrieval_args(stream)
    _add_obs_args(stream)

    bench_stream = sub.add_parser(
        "bench-stream",
        help="benchmark the continual-learning loop under serving load")
    bench_stream.add_argument("--dataset", default="hm")
    bench_stream.add_argument("--model", default="pmmrec-text")
    bench_stream.add_argument("--profile", default=None)
    bench_stream.add_argument("--duration", type=float, default=8.0,
                              help="seconds of continuous client load")
    bench_stream.add_argument("--clients", type=int, default=4,
                              help="concurrent request threads")
    bench_stream.add_argument("--k", type=int, default=10)
    bench_stream.add_argument("--event-batch", type=int, default=16)
    bench_stream.add_argument("--event-waves", type=int, default=6)
    bench_stream.add_argument("--cold-items", type=int, default=6)
    bench_stream.add_argument("--steps-per-swap", type=int, default=4)
    bench_stream.add_argument("--stream-batch-size", type=int, default=8)
    bench_stream.add_argument("--stream-lr", type=float, default=5e-4)
    bench_stream.add_argument("--no-eval-gate", action="store_true",
                              help="benchmark ungated swaps (PR-5 "
                                   "behavior)")
    bench_stream.add_argument("--gate-tolerance", type=float, default=0.1)
    bench_stream.add_argument("--replay-bias", type=float, default=0.5)
    bench_stream.add_argument("--poison-events", type=int, default=0,
                              help="inject this many poisoned events "
                                   "mid-run to exercise the gate")
    bench_stream.add_argument("--workers", type=int, default=0,
                              help="serve through a worker pool of this "
                                   "size (0 = in-process)")
    bench_stream.add_argument("--seed", type=int, default=0)
    _add_retrieval_args(bench_stream)

    bench = sub.add_parser("bench-serve",
                           help="benchmark serving latency/throughput")
    bench.add_argument("--dataset", required=True)
    bench.add_argument("--model", default="sasrec")
    bench.add_argument("--checkpoint", default=None)
    bench.add_argument("--profile", default=None)
    bench.add_argument("--requests", type=int, default=256)
    bench.add_argument("--k", type=int, default=10)
    bench.add_argument("--batch", type=int, default=32,
                       help="micro-batch width for the batched path")
    bench.add_argument("--dtype", default="float32",
                       choices=["float32", "float64"])
    bench.add_argument("--workers", type=int, default=0,
                       help="run the worker-count scaling sweep up to N "
                            "pool processes over HTTP (0 = the in-process "
                            "path comparison only)")
    bench.add_argument("--clients", type=int, default=8,
                       help="keep-alive client threads for the pool sweep")
    bench.add_argument("--seed", type=int, default=0)
    _add_retrieval_args(bench)

    prof = sub.add_parser("prof",
                          help="profile the fused training kernels "
                               "(REPRO_PROF) over a few train steps")
    prof.add_argument("--dataset", default="kwai_food")
    prof.add_argument("--model", default="pmmrec-text")
    prof.add_argument("--profile", default=None)
    prof.add_argument("--steps", type=int, default=8)
    prof.add_argument("--batch-size", type=int, default=16)
    prof.add_argument("--seed", type=int, default=0)

    stats = sub.add_parser("stats",
                           help="fetch and tabulate /metrics + /stats "
                                "from a running server")
    stats.add_argument("--url", default="http://127.0.0.1:8765",
                       help="base URL of a repro serve/stream process")
    stats.add_argument("--prefix", default="repro_",
                       help="only show metric families with this prefix")
    stats.add_argument("--watch", type=float, default=None, metavar="N",
                       help="refresh the table every N seconds "
                            "(Ctrl-C to stop)")

    top = sub.add_parser("top",
                         help="live terminal dashboard over /health, "
                              "/alerts, /stats and /timeline")
    top.add_argument("--url", default="http://127.0.0.1:8765",
                     help="base URL of a repro serve/stream process")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes")
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (for scripts/CI)")
    return parser


def _add_obs_args(sub) -> None:
    """Observability flags shared by ``serve`` and ``stream``."""
    sub.add_argument("--trace-sample-rate", type=float, default=0.0,
                     help="fraction of requests (and swaps) that record "
                          "a span trace (0 disables, 1 traces all)")
    sub.add_argument("--trace-log", default=None,
                     help="append finished traces to this JSONL file")
    sub.add_argument("--access-log", default=None,
                     help="append one JSONL line per HTTP request "
                          "(method, path, status, latency_ms, trace_id)")
    sub.add_argument("--no-monitor", action="store_true",
                     help="disable the self-monitoring timeline + SLO "
                          "health engine (on by default)")
    sub.add_argument("--monitor-interval", type=float, default=1.0,
                     help="seconds between timeline samples")
    sub.add_argument("--monitor-window", type=float, default=300.0,
                     help="seconds of time-series history kept in memory "
                          "(ring buffer; memory is fixed by window/interval)")
    sub.add_argument("--latency-slo-ms", type=float, default=500.0,
                     help="p99 request-latency ceiling for the "
                          "latency_p99 health rule")


def _add_retrieval_args(sub) -> None:
    """Retrieval-backend flags shared by ``serve`` and ``bench-serve``."""
    from .serve.ann import ANN_KINDS
    sub.add_argument("--retrieval", default="exact", choices=ANN_KINDS,
                     help="top-k backend: exact full-catalogue scoring "
                          "or IVF (k-means cells)")
    sub.add_argument("--nlist", type=int, default=None,
                     help="IVF cells (default 4*sqrt(num_items))")
    sub.add_argument("--nprobe", type=int, default=None,
                     help="IVF cells scanned per query (default nlist/32, "
                          "floor 4)")
    sub.add_argument("--ann-min-items", type=int, default=None,
                     help="catalogue-size floor below which retrieval "
                          "falls back to exact scoring (default 1024)")


def _ann_params(args) -> dict | None:
    """Backend constructor kwargs from parsed CLI flags."""
    if args.retrieval == "ivf":
        return {"nlist": args.nlist, "nprobe": args.nprobe,
                "seed": args.seed}
    return None


def _cmd_datasets(args) -> int:
    from .experiments import table2_datasets
    results = table2_datasets.run(profile=args.profile)
    print(table2_datasets.render(results))
    return 0


def _make_model(name: str, dataset, seed: int):
    from .serve.registry import build_model
    return build_model(name, dataset, seed=seed)


def _cmd_train(args) -> int:
    from .data import build_dataset
    from .eval import evaluate_model
    from .train import TrainConfig, Trainer
    dataset = build_dataset(args.dataset, profile=args.profile)
    model = _make_model(args.model, dataset, args.seed)
    config = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                         lr=args.lr, dtype=args.dtype, seed=args.seed,
                         verbose=True)
    multitask = args.model.startswith("pmmrec")
    result = Trainer(model, dataset, config, pretraining=multitask).fit()
    metrics = evaluate_model(model, dataset, dataset.split.test,
                             ks=(10, 20, 50))
    print(f"best val {config.metric}: {result.best_metric:.4f} "
          f"(epoch {result.best_epoch}/{result.epochs_run})")
    print("test:", {k: round(v, 4) for k, v in metrics.items()})
    if args.save:
        from .nn.serialization import save_checkpoint
        save_checkpoint(model, args.save)
        print(f"checkpoint written to {args.save}")
    return 0


def _cmd_transfer(args) -> int:
    from .core import PMMRec, PMMRecConfig, transferred_model
    from .data import build_dataset, fuse_datasets
    from .eval import evaluate_model
    from .train import TrainConfig, Trainer
    names = [s.strip() for s in args.sources.split(",") if s.strip()]
    sources = [build_dataset(n, profile=args.profile) for n in names]
    corpus = fuse_datasets(sources) if len(sources) > 1 else sources[0]
    print(f"pre-training on {', '.join(names)} "
          f"({corpus.num_users} users / {corpus.num_items} items)")
    model = PMMRec(PMMRecConfig(seed=args.seed))
    Trainer(model, corpus,
            TrainConfig(epochs=args.pretrain_epochs, batch_size=32,
                        seed=args.seed, verbose=True),
            pretraining=True).fit()

    target = build_dataset(args.target, profile=args.profile)
    deployed = transferred_model(model, args.setting)
    result = Trainer(deployed, target,
                     TrainConfig(epochs=args.finetune_epochs, batch_size=24,
                                 seed=args.seed, verbose=True),
                     pretraining=False).fit()
    metrics = evaluate_model(deployed, target, target.split.test, ks=(10,))
    print(f"[{args.setting}] best val: {result.best_metric:.4f}; "
          f"test: {({k: round(v, 4) for k, v in metrics.items()})}")
    return 0


def _cmd_experiment(args) -> int:
    from .experiments import ALL_TABLES
    names = list(ALL_TABLES) if args.name == "all" else [args.name]
    for name in names:
        if name not in ALL_TABLES:
            print(f"unknown experiment {name!r}; "
                  f"choose from {sorted(ALL_TABLES)} or 'all'",
                  file=sys.stderr)
            return 2
    for name in names:
        module = ALL_TABLES[name]
        try:
            results = module.run(profile=args.profile, workers=args.workers)
        except TypeError:
            results = module.run(profile=args.profile)
        print(module.render(results))
    return 0


def _build_service(args):
    """The service the flags describe, or None (refusal on stderr)."""
    from .serve import ModelRegistry, PoolError, RecommendationService
    registry = ModelRegistry(profile=args.profile, dtype=args.dtype,
                             exclude_seen=not args.no_exclude_seen,
                             retrieval=args.retrieval,
                             ann_params=_ann_params(args),
                             min_ann_items=args.ann_min_items)
    for spec in args.scenarios.split(","):
        if not spec.strip():
            continue
        scenario = registry.add(spec.strip(), seed=args.seed)
        info = scenario.describe()
        print(f"loaded {info['dataset']}:{info['model']} "
              f"({info['num_items']} items, index v{info['index_version']}, "
              f"{info['index_nbytes'] / 1024:.0f} KiB, "
              f"retrieval={info['retrieval']['retrieval']})")
    workers = getattr(args, "workers", 0) or 0
    # Build the service (and fork its pool) before anything starts
    # threads (HTTP server, stream fine-tune workers): forked children
    # must never inherit a parent thread's locks mid-flight.
    try:
        service = RecommendationService(registry, workers=workers,
                                        max_batch=args.max_batch,
                                        max_wait_ms=args.max_wait_ms,
                                        cache_size=args.cache_size)
    except PoolError as exc:
        print(f"repro {args.command}: {exc}; pass --workers 0 to serve "
              "in-process", file=sys.stderr)
        return None
    if workers > 0:
        print(f"worker pool: {workers} "
              f"process{'es' if workers > 1 else ''} "
              f"(memfd catalogues, generation-fenced swaps)")
    return service


def _configure_obs(args) -> None:
    """Apply the shared --trace-sample-rate/--trace-log flags."""
    from .obs import trace
    if args.trace_sample_rate or args.trace_log:
        trace.configure(sample_rate=args.trace_sample_rate,
                        path=args.trace_log)


def _enable_monitoring(service, args) -> None:
    """Attach the self-monitoring timeline + health engine (default on)."""
    if args.no_monitor:
        return
    from .obs.health import default_rules
    service.enable_monitoring(
        interval_s=args.monitor_interval, window_s=args.monitor_window,
        rules=default_rules(latency_ceiling_s=args.latency_slo_ms / 1e3))
    print(f"self-monitoring: sampling every {args.monitor_interval:g}s, "
          f"{args.monitor_window:g}s window, "
          f"p99 SLO {args.latency_slo_ms:g} ms "
          f"(/health /alerts /timeline, `repro top`)")


def _cmd_serve(args) -> int:
    from .serve import make_server, serve_forever
    service = _build_service(args)
    if service is None:
        return 2
    _configure_obs(args)
    _enable_monitoring(service, args)
    if not args.smoke:
        serve_forever(service, host=args.host, port=args.port,
                      access_log=args.access_log)
        return 0
    # Smoke mode: bind an ephemeral port, answer one real HTTP request per
    # scenario, verify it against direct top-k retrieval, and exit.
    import json as _json
    import urllib.request

    import numpy as np
    server = make_server(service, host=args.host, port=0,
                         access_log=args.access_log)
    server.start_background()
    failures = 0
    try:
        for scenario in service.registry:
            dataset = scenario.dataset
            history = [int(i) for i in dataset.split.test[0].history]
            body = _json.dumps({"dataset": scenario.spec.dataset,
                                "model": scenario.spec.model,
                                "history": history, "k": 10}).encode()
            request = urllib.request.Request(
                server.url + "/recommend", data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                payload = _json.load(response)
            # Capture routing counters before the out-of-band
            # verification call below inflates them: the printed
            # numbers describe the HTTP-served traffic only.
            routing = scenario.recommender.describe_retrieval()
            expected = scenario.recommender.recommend(history, k=10)
            ok = np.array_equal(payload["items"], expected.items)
            failures += 0 if ok else 1
            print(f"smoke {scenario.spec.dataset}:{scenario.spec.model} "
                  f"-> top-{len(payload['items'])} "
                  f"{'OK' if ok else 'MISMATCH'} "
                  f"({payload['latency_ms']:.1f} ms; "
                  f"retrieval={routing['retrieval']} "
                  f"ann_batches={routing['ann_batches']} "
                  f"fallbacks={routing['fallbacks']})")
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    print("serve smoke:", "PASS" if failures == 0 else "FAIL")
    return 1 if failures else 0


def _stream_config(args):
    from .stream import StreamConfig
    return StreamConfig(batch_size=args.stream_batch_size,
                        lr=args.stream_lr,
                        steps_per_swap=args.steps_per_swap,
                        min_events_per_round=args.min_events,
                        buffer_capacity=args.buffer_size,
                        checkpoint_dir=args.checkpoint_dir,
                        log_path=args.event_log,
                        eval_gate=not args.no_eval_gate,
                        gate_tolerance=args.gate_tolerance,
                        eval_set_size=args.eval_set_size,
                        eval_holdout_frac=args.eval_holdout_frac,
                        replay_bias=args.replay_bias,
                        shadow_mode=args.shadow_mode,
                        shadow_log_path=args.shadow_log,
                        seed=args.seed)


def _cmd_stream(args) -> int:
    from .serve import make_server, serve_forever
    from .stream import StreamManager, run_stream_smoke
    service = _build_service(args)
    if service is None:
        return 2
    # Smoke mode drives the fine-tune worker synchronously so the
    # ingest → steps → swap → verify sequence is deterministic; the
    # live service runs the background worker threads.
    manager = StreamManager(service, _stream_config(args),
                            start=not args.smoke)
    service.attach_stream(manager)
    for (dataset, model), worker in manager.workers():
        print(f"streaming {dataset}:{model} "
              f"(cold items {'supported' if worker.supports_cold_items else 'unsupported (ID-based model)'}, "
              f"{args.steps_per_swap} steps/swap)")
    for key, reason in manager.stats().get("unstreamable", {}).items():
        print(f"serving only (no stream) {key}: {reason}")
    _configure_obs(args)
    _enable_monitoring(service, args)
    if not args.smoke:
        serve_forever(service, host=args.host, port=args.port,
                      access_log=args.access_log)
        return 0
    server = make_server(service, host=args.host, port=0,
                         access_log=args.access_log)
    server.start_background()
    try:
        return run_stream_smoke(service, manager, server.url,
                                seed=args.seed)
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _cmd_bench_stream(args) -> int:
    from .stream import bench_stream, render_stream_report
    report = bench_stream(
        args.dataset, args.model, profile=args.profile,
        duration_s=args.duration, client_threads=args.clients, k=args.k,
        event_batch=args.event_batch, event_waves=args.event_waves,
        cold_items=args.cold_items, retrieval=args.retrieval,
        ann_params=_ann_params(args),
        min_ann_items=(1 if args.ann_min_items is None
                       else args.ann_min_items),
        steps_per_swap=args.steps_per_swap,
        batch_size=args.stream_batch_size, lr=args.stream_lr,
        eval_gate=not args.no_eval_gate,
        gate_tolerance=args.gate_tolerance,
        replay_bias=args.replay_bias,
        poison_events=args.poison_events,
        workers=args.workers,
        seed=args.seed)
    print(render_stream_report(
        report, title=f"stream benchmark — {args.dataset}:{args.model} "
                      f"(profile={args.profile}, "
                      f"retrieval={args.retrieval})"))
    return 0 if report["requests_dropped"] == 0 else 1


def _cmd_bench_serve(args) -> int:
    from .serve import (ModelRegistry, compare_paths, render_comparison,
                        request_stream)
    from .serve.registry import ScenarioSpec
    if args.workers > 0:
        from .serve.bench import bench_pool_scaling, render_pool_report
        counts = sorted({c for c in (1, 2, 4, 8, 16, 32)
                         if c <= args.workers} | {args.workers})
        sweep = bench_pool_scaling(
            args.dataset, args.model, profile=args.profile,
            worker_counts=tuple(counts), requests=args.requests,
            client_threads=args.clients, k=args.k, dtype=args.dtype,
            max_batch=args.batch, checkpoint=args.checkpoint or None,
            seed=args.seed)
        print(render_pool_report(
            sweep,
            title=f"worker-pool scaling sweep — {args.dataset}:{args.model} "
                  f"({args.dtype}, k={args.k})"))
        return 0
    registry = ModelRegistry(profile=args.profile, dtype=args.dtype,
                             retrieval=args.retrieval,
                             ann_params=_ann_params(args),
                             min_ann_items=args.ann_min_items)
    scenario = registry.add(ScenarioSpec(dataset=args.dataset,
                                         model=args.model,
                                         checkpoint=args.checkpoint or None),
                            seed=args.seed)
    histories = request_stream(scenario.dataset, args.requests,
                               seed=args.seed)
    comparison = compare_paths(scenario.recommender, histories, k=args.k,
                               batch_size=args.batch)
    print(render_comparison(
        comparison,
        title=f"serve benchmark — {args.dataset}:{args.model} "
              f"({scenario.dataset.num_items} items, {args.dtype}, "
              f"k={args.k}, retrieval={args.retrieval})"))
    return 0


def _cmd_prof(args) -> int:
    """Run a few profiled train steps and print the per-kernel table."""
    from .data import build_dataset
    from .data.batching import batch_iterator
    from .obs import prof
    from .train import TrainConfig, Trainer
    import numpy as np
    dataset = build_dataset(args.dataset, profile=args.profile)
    model = _make_model(args.model, dataset, args.seed)
    trainer = Trainer(model, dataset,
                      TrainConfig(batch_size=args.batch_size,
                                  seed=args.seed),
                      pretraining=args.model.startswith("pmmrec"))
    rng = np.random.default_rng(args.seed)
    prof.enable()
    prof.reset_baseline()
    done = 0
    while done < args.steps:
        for batch in batch_iterator(dataset.split.train, args.batch_size,
                                    rng, max_len=trainer.config.max_seq_len):
            trainer.train_step(batch.item_ids, batch.mask)
            done += 1
            if done >= args.steps:
                break
    print(prof.render_table(
        title=f"kernel profile — {args.dataset}:{args.model} "
              f"({done} steps, batch {args.batch_size})"))
    return 0


def _render_stats(base: str, prefix: str) -> str:
    """One ``repro stats`` frame: /metrics table + /stats latency lines."""
    import json as _json
    import urllib.request
    from .obs.metrics import parse_prometheus
    with urllib.request.urlopen(base + "/metrics", timeout=10) as response:
        exposition = response.read().decode()
    samples = parse_prometheus(exposition)
    shown = sorted((name, labels, value)
                   for (name, labels), value in samples.items()
                   if name.startswith(prefix)
                   and not name.endswith("_bucket"))
    width = max((len(f"{n}{l}") for n, l, _ in shown), default=20)
    lines = [f"{name + labels:<{width}}  {value:g}"
             for name, labels, value in shown]
    try:
        with urllib.request.urlopen(base + "/stats", timeout=10) as response:
            stats = _json.load(response)
    except Exception:
        return "\n".join(lines)
    for scenario, counters in stats.get("scenarios", {}).items():
        latency = counters.get("latency_ms")
        if latency:
            lines.append(f"{scenario}: p50 {latency['p50']:.2f} ms  "
                         f"p99 {latency['p99']:.2f} ms  "
                         f"({latency['count']} requests)")
    return "\n".join(lines)


def _cmd_stats(args) -> int:
    """Tabulate a running server's /metrics (+ /stats summary)."""
    base = args.url.rstrip("/")
    if args.watch is None:
        print(_render_stats(base, args.prefix))
        return 0
    # --watch N reuses the `repro top` refresh loop (clear + redraw).
    from .obs.top import watch_loop
    return watch_loop(lambda: _render_stats(base, args.prefix),
                      interval_s=args.watch)


def _cmd_top(args) -> int:
    """Live terminal dashboard: health, alerts, QPS sparkline, topology."""
    from .obs.top import run_top
    return run_top(args.url.rstrip("/"), interval_s=args.interval,
                   once=args.once)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"datasets": _cmd_datasets, "train": _cmd_train,
                "transfer": _cmd_transfer, "experiment": _cmd_experiment,
                "serve": _cmd_serve, "bench-serve": _cmd_bench_serve,
                "stream": _cmd_stream, "bench-stream": _cmd_bench_stream,
                "prof": _cmd_prof, "stats": _cmd_stats, "top": _cmd_top}
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
