"""Streaming benchmark: continuous serving load + live learning + swaps.

Three jobs:

* :func:`synthetic_interactions` / :func:`synthetic_cold_items` — wire
  format event generators. Cold items are rendered by the shared
  :class:`~repro.data.world.LatentWorld` exactly like catalogue items
  (same text/image renderers, fresh latents), so "a new item uploaded
  with its title and thumbnail" is simulated faithfully.
* :func:`bench_stream` — the end-to-end measurement behind
  ``repro bench-stream`` and ``benchmarks/test_stream_bench.py``:
  client threads hammer ``service.recommend`` continuously while events
  are ingested and the background worker fine-tunes and hot-swaps;
  reports serving latency under churn, swap latency p50/p99, dropped
  requests (must be zero), post-swap ANN recall vs exact, and the ranks
  at which the injected cold items surface for topic-matched probes.
* :func:`run_stream_smoke` — the CI smoke: real HTTP requests through
  ``POST /events`` → fine-tune → swap → verify ``/recommend`` serves
  the new generation and ``/stats`` reports the swap counters.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np

from ..data import get_world, platform_for
from ..data.catalog import (_STYLE_TOKEN_TOTAL, MAX_TEXT_LEN, TEXT_OFFSET,
                            text_vocab_size)
from ..serve import ModelRegistry, RecommendationService, Recommender
from ..serve.bench import request_stream, stage_snapshots
from .manager import StreamManager
from .worker import StreamConfig

__all__ = ["synthetic_interactions", "synthetic_cold_items",
           "poisoned_events", "bench_stream", "render_stream_report",
           "run_stream_smoke"]


def synthetic_interactions(dataset, count: int,
                           rng: np.random.Generator,
                           item_pool: np.ndarray | None = None) -> list[dict]:
    """``count`` wire-format interaction events over existing users.

    ``item_pool`` restricts the clicked items (used to direct traffic at
    freshly registered cold items); by default items are drawn from real
    user sequences so the stream looks like the training distribution.
    """
    events = []
    num_users = dataset.num_users
    for _ in range(count):
        user = int(rng.integers(0, num_users))
        if item_pool is not None:
            item = int(item_pool[rng.integers(0, len(item_pool))])
        else:
            seq = dataset.sequences[int(rng.integers(0, num_users))]
            item = int(seq[rng.integers(0, len(seq))])
        events.append({"user": user, "item": item})
    return events


def synthetic_cold_items(dataset, count: int, rng: np.random.Generator,
                         with_images: bool = True) -> tuple[list[dict],
                                                            np.ndarray]:
    """``count`` cold-item events with world-rendered modality features.

    Returns ``(events, topics)`` — the topic of each item, so callers
    can build topic-matched probe histories to check that cold items
    actually become recommendable.
    """
    world = get_world()
    spec = platform_for(dataset.name)
    known = np.unique(dataset.item_topics[dataset.item_topics >= 0])
    if known.size == 0:
        raise ValueError(f"dataset {dataset.name!r} has no topic labels")
    tag_base = world.config.vocab_size + _STYLE_TOKEN_TOTAL
    events, topics = [], []
    for _ in range(count):
        topic = int(known[rng.integers(0, known.size)])
        latent = world.sample_items(np.array([topic]), rng)[0]
        tag = tag_base + topic if spec.uses_tag_tokens else None
        raw_len = int(rng.integers(9, MAX_TEXT_LEN + 1))
        tokens = world.render_text(latent, topic, raw_len, rng,
                                   style_offset=spec.style_offset,
                                   style_count=8, tag_token=tag,
                                   noise_tokens=spec.text_noise_tokens)
        tokens = tokens[:MAX_TEXT_LEN] + TEXT_OFFSET
        item: dict = {"text_tokens": [int(t) for t in tokens],
                      "topic": topic}
        if with_images:
            image = world.render_image(latent, rng, clutter=spec.clutter)
            item["image"] = image.tolist()
        events.append({"item": item})
        topics.append(topic)
    return events, np.asarray(topics, dtype=np.int64)


def poisoned_events(dataset, count: int, rng: np.random.Generator,
                    burst: int = 30, cold_frac: float = 0.1) -> list[dict]:
    """``count`` wire-format events that are *valid but destructive*.

    The stress input for the eval gate: per-user *bursts* of uniformly
    random clicks plus a slice of cold items whose text is uniform token
    noise — in-vocabulary, so ingestion validation accepts every event,
    yet semantically garbage. The bursts matter: a single shuffled label
    per user barely moves training (the replayed history window is still
    dominated by the user's real prefix), but ``burst`` random clicks in
    a row — sized to the replay window — leave that user's recent
    histories with no next-item structure at all. A fine-tune round fed
    this moves the shadow away from the data distribution, which is
    exactly what the gate must catch before it reaches serving.
    """
    events: list[dict] = []
    cold = int(count * cold_frac)
    for _ in range(cold):
        tokens = rng.integers(TEXT_OFFSET, text_vocab_size(),
                              size=MAX_TEXT_LEN)
        events.append({"item": {"text_tokens": [int(t) for t in tokens],
                                "topic": -1},
                       "user": int(rng.integers(0, dataset.num_users))})
    while len(events) < count:
        user = int(rng.integers(0, dataset.num_users))
        for _ in range(min(burst, count - len(events))):
            events.append({"user": user,
                           "item": int(rng.integers(1,
                                                    dataset.num_items + 1))})
    return events


def _topic_probe(dataset, topic: int, rng: np.random.Generator,
                 length: int = 6, exclude: int | None = None) -> np.ndarray:
    """A plausible history of catalogue items sharing ``topic``."""
    pool = np.flatnonzero(dataset.item_topics == topic)
    pool = pool[pool != (exclude if exclude is not None else -1)]
    pool = pool[pool >= 1]
    if pool.size == 0:
        pool = np.arange(1, dataset.num_items + 1)
    picks = rng.choice(pool, size=min(length, pool.size), replace=False)
    return picks.astype(np.int64)


def _cold_item_ranks(scenario, cold_ids: list[int], topics: np.ndarray,
                     rng: np.random.Generator) -> list[int]:
    """Exact full-catalogue rank of each cold item for a matched probe."""
    recommender = scenario.recommender
    ranks = []
    for item, topic in zip(cold_ids, topics):
        probe = _topic_probe(scenario.dataset, int(topic), rng,
                             exclude=item)
        scores = recommender.score([probe])[0].copy()
        scores[0] = -np.inf
        scores[probe] = -np.inf
        ranks.append(int((scores > scores[item]).sum()) + 1)
    return ranks


def _ann_recall_vs_exact(scenario, histories: list[np.ndarray],
                         k: int = 10) -> float | None:
    """Post-swap recall@k of the routed path against exact scoring.

    ``None`` when the scenario retrieves exactly (nothing to compare).
    Both paths score the *same* published index snapshot; the exact
    reference deliberately constructs its own Recommender so the live
    one's routing stats stay untouched by the measurement.
    """
    live = scenario.recommender
    if live.retrieval == "exact" or live.ann is None:
        return None
    exact = Recommender(scenario.model, scenario.dataset, index=live.index,
                        retrieval="exact", exclude_seen=live.exclude_seen,
                        min_ann_items=live.min_ann_items)
    hits = total = 0
    for history in histories:
        approx = live.recommend(history, k=k)
        truth = exact.recommend(history, k=k)
        hits += np.isin(approx.items, truth.items).sum()
        total += len(truth.items)
    return float(hits) / max(total, 1)


def bench_stream(dataset_name: str = "hm", model_name: str = "pmmrec-text",
                 profile: str | None = None, *, duration_s: float = 8.0,
                 client_threads: int = 4, k: int = 10,
                 event_batch: int = 16, event_waves: int = 6,
                 cold_items: int = 6, retrieval: str = "ivf",
                 ann_params: dict | None = None, min_ann_items: int = 1,
                 steps_per_swap: int = 4, batch_size: int = 8,
                 lr: float = 5e-4, recall_queries: int = 32,
                 eval_gate: bool = True, gate_tolerance: float = 0.1,
                 replay_bias: float = 0.5, poison_events: int = 0,
                 workers: int = 0, seed: int = 0) -> dict:
    """Serve continuously while ingesting, fine-tuning and hot-swapping.

    Every run is *gated* by default: candidate generations are scored on
    the worker's held-out slice before publishing, and the report counts
    gate evaluations, published swaps and rejections (the swap latency
    percentiles therefore include the gate's eval cost — the overhead
    the artifact tracks). ``poison_events > 0`` additionally injects one
    wave of label-shuffled/garbage events mid-stream so a run can
    exercise the rejection path. Returns a JSON-ready report; render
    with :func:`render_stream_report`.
    """
    rng = np.random.default_rng(seed)
    registry = ModelRegistry(profile=profile, dtype="float32",
                             retrieval=retrieval, ann_params=ann_params,
                             min_ann_items=min_ann_items)
    scenario = registry.add(f"{dataset_name}:{model_name}", seed=seed)
    initial_version = scenario.recommender.index_version
    # A pooled tier must fork before the StreamManager (and its
    # fine-tune threads) exist; swaps then run the generation fence.
    service = RecommendationService(registry, workers=workers)
    config = StreamConfig(batch_size=batch_size, lr=lr,
                          steps_per_swap=steps_per_swap,
                          min_events_per_round=event_batch,
                          round_timeout_s=0.25, eval_gate=eval_gate,
                          gate_tolerance=gate_tolerance,
                          replay_bias=replay_bias, seed=seed)
    manager = StreamManager(service, config)
    service.attach_stream(manager)
    worker = manager.worker(dataset_name, model_name)
    histories = request_stream(scenario.dataset, 256, seed=seed)
    obs_before = stage_snapshots(prefix="repro_stream_")

    # -- continuous client load ----------------------------------------------
    stop = threading.Event()
    latencies: list[float] = []
    versions: set[int] = set()
    errors: list[str] = []
    submitted = [0] * client_threads
    completed = [0] * client_threads
    lock = threading.Lock()

    def client(thread_id: int) -> None:
        thread_rng = np.random.default_rng(seed + 1000 + thread_id)
        while not stop.is_set():
            history = histories[thread_rng.integers(0, len(histories))]
            submitted[thread_id] += 1
            start = time.perf_counter()
            try:
                payload = service.recommend(dataset_name, model_name,
                                            [int(i) for i in history], k=k)
            except Exception as exc:  # noqa: BLE001 - reported as dropped
                with lock:
                    errors.append(f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            completed[thread_id] += 1
            with lock:
                latencies.append(elapsed)
                versions.add(payload["index_version"])

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(client_threads)]
    bench_start = time.perf_counter()
    for thread in threads:
        thread.start()

    # -- the event stream ----------------------------------------------------
    cold_events, cold_topics = synthetic_cold_items(scenario.dataset,
                                                    cold_items, rng)
    receipt = service.ingest_events(dataset_name, model_name, cold_events)
    cold_ids = receipt["cold_item_ids"]
    wave_gap = max(duration_s - 1.0, 0.5) / max(event_waves, 1)
    for wave in range(event_waves):
        events = synthetic_interactions(scenario.dataset, event_batch, rng)
        # Direct a slice of traffic at the cold items so the fine-tune
        # steps actually see them.
        events += synthetic_interactions(
            scenario.dataset, max(event_batch // 4, 2), rng,
            item_pool=np.asarray(cold_ids))
        if poison_events and wave == event_waves // 2:
            events += poisoned_events(scenario.dataset, poison_events, rng)
        service.ingest_events(dataset_name, model_name, events)
        time.sleep(wave_gap)
    # Fold any remainder into one final generation so the measurements
    # below see every ingested event.
    final_report = worker.swap().to_json()
    while time.perf_counter() - bench_start < duration_s:
        time.sleep(0.05)
    stop.set()
    for thread in threads:
        thread.join(timeout=30)
    wall = time.perf_counter() - bench_start

    # -- post-swap measurements ----------------------------------------------
    final = registry.get(dataset_name, model_name)
    recall_pool = [histories[i] for i in
                   rng.integers(0, len(histories), size=recall_queries)]
    recall = _ann_recall_vs_exact(final, recall_pool, k=k)
    cold_ranks = _cold_item_ranks(final, cold_ids, cold_topics, rng)
    stream_stats = worker.stats_json()
    # Only this run's observations: swap-phase timings (pre-warm, index
    # build, gate, publish, drain) carved out of the registry histograms.
    obs_delta = stage_snapshots(obs_before, prefix="repro_stream_")
    swap_phases = {
        name.split("phase=")[1].rstrip("}"): summary
        for name, summary in obs_delta.items()
        if name.startswith("repro_stream_swap_phase_seconds")}
    service.close()

    lat_ms = np.asarray(latencies) * 1e3
    report = {
        "scenario": f"{dataset_name}:{model_name}",
        "profile": profile, "retrieval": retrieval, "k": k,
        "duration_s": round(wall, 3),
        "clients": client_threads,
        "requests_submitted": int(sum(submitted)),
        "requests_completed": int(sum(completed)),
        "requests_dropped": int(sum(submitted) - sum(completed)),
        "errors": errors[:8],
        "serve_p50_ms": float(np.percentile(lat_ms, 50)) if len(lat_ms)
        else None,
        "serve_p99_ms": float(np.percentile(lat_ms, 99)) if len(lat_ms)
        else None,
        "serve_qps": float(len(lat_ms) / wall) if wall > 0 else None,
        "versions_served": sorted(int(v) for v in versions),
        "initial_version": int(initial_version),
        "final_version": int(final.recommender.index_version),
        "final_swap": final_report,
        "stream": stream_stats,
        "swap_phases": swap_phases,
        "cold_item_ids": [int(i) for i in cold_ids],
        "cold_item_ranks": cold_ranks,
        "cold_in_top10": int(sum(r <= 10 for r in cold_ranks)),
        "cold_in_top50": int(sum(r <= 50 for r in cold_ranks)),
        "catalogue_items_final": int(final.dataset.num_items),
        "ann_recall_at_k": recall,
        "gate": {"enabled": eval_gate,
                 "tolerance": gate_tolerance,
                 "replay_bias": replay_bias,
                 "poison_events": poison_events,
                 "evals": int(stream_stats["gate_evals"]),
                 "published": int(stream_stats["swaps"]),
                 "rejected": int(stream_stats["swaps_rejected"]),
                 "eval_examples": int(stream_stats["eval_examples"]),
                 "last_rejection": stream_stats["last_rejection"]},
    }
    return report


def _fmt(value: float | None, spec: str = ".2f") -> str:
    """Format a possibly-absent metric (None when nothing completed)."""
    return "n/a" if value is None else format(value, spec)


def render_stream_report(report: dict,
                         title: str = "stream benchmark") -> str:
    """Human-readable artifact text (``results/stream_bench.txt``).

    Must render even for a fully failed run (zero completed requests →
    latency/QPS are ``None``): the report is exactly what an operator
    needs to see then.
    """
    lines = [title, "=" * len(title)]
    stream = report["stream"]
    lines += [
        f"scenario            {report['scenario']} "
        f"(profile={report['profile']}, retrieval={report['retrieval']})",
        f"duration            {report['duration_s']:.1f}s, "
        f"{report['clients']} client threads",
        f"serving under churn p50 {_fmt(report['serve_p50_ms'])} ms  "
        f"p99 {_fmt(report['serve_p99_ms'])} ms  "
        f"{_fmt(report['serve_qps'], '.0f')} req/s",
        f"requests            {report['requests_completed']}/"
        f"{report['requests_submitted']} completed, "
        f"{report['requests_dropped']} dropped",
        f"events ingested     {stream['events_total']} "
        f"({stream['interactions']} interactions, "
        f"{stream['cold_items']} cold items)",
        f"fine-tune steps     {stream['steps']} "
        f"(last loss {stream['last_loss']:.4f})",
        f"hot swaps           {stream['swaps']}  "
        f"p50 {stream.get('swap_p50_ms', float('nan')):.1f} ms  "
        f"p99 {stream.get('swap_p99_ms', float('nan')):.1f} ms",
        f"eval gate           {report['gate']['evals']} evals, "
        f"{report['gate']['published']} published, "
        f"{report['gate']['rejected']} rejected "
        f"(tol {report['gate']['tolerance']}, "
        f"{report['gate']['eval_examples']} held-out examples, "
        f"replay bias {report['gate']['replay_bias']})",
        f"index versions      v{report['initial_version']} -> "
        f"v{report['final_version']} "
        f"(served: {report['versions_served']})",
        f"catalogue growth    -> {report['catalogue_items_final']} items "
        f"({len(report['cold_item_ids'])} cold)",
        f"cold-item ranks     {report['cold_item_ranks']} "
        f"(top-10: {report['cold_in_top10']}, "
        f"top-50: {report['cold_in_top50']})",
    ]
    if report["ann_recall_at_k"] is not None:
        lines.append(f"ann recall@{report['k']}       "
                     f"{report['ann_recall_at_k']:.4f} vs exact, post-swap")
    phases = report.get("swap_phases") or {}
    if phases:
        lines.append("swap phases         "
                     + "  ".join(f"{name} {s['mean']:.1f}ms"
                                 for name, s in phases.items()))
    if report["requests_dropped"]:
        lines.append(f"dropped errors      {report['errors']}")
    return "\n".join(lines)


# -- CI smoke -----------------------------------------------------------------

def _post(url: str, payload: dict, timeout: float = 60.0) -> dict:
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.load(response)


def _get(url: str, timeout: float = 30.0) -> dict:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.load(response)


def run_stream_smoke(service: RecommendationService, manager: StreamManager,
                     url: str, steps: int = 2, seed: int = 0) -> int:
    """Ingest → fine-tune → hot-swap → verify, all over real HTTP.

    Returns a process exit code (0 = pass). Drives the first streamable
    scenario: posts synthetic interactions plus one cold item to
    ``/events``, runs fine-tune steps, forces a swap via ``/swap``, then
    checks that ``/recommend`` accepts the cold item id, serves the new
    index version, and that ``/stats`` shows the swap counters.
    """
    rng = np.random.default_rng(seed)
    failures = []
    workers = manager.workers()
    if not workers:
        unstreamable = manager.stats().get("unstreamable", {})
        print(f"stream smoke FAILURE: no streamable scenarios "
              f"(unstreamable: {unstreamable or 'none loaded'})")
        print("stream smoke: FAIL")
        return 1
    (dataset_name, model_name), worker = workers[0]
    scenario = service.registry.get(dataset_name, model_name)
    version_before = scenario.recommender.index_version
    history = [int(i) for i in scenario.dataset.split.test[0].history]

    events = synthetic_interactions(scenario.dataset, 12, rng)
    if worker.supports_cold_items:
        cold_events, _ = synthetic_cold_items(scenario.dataset, 1, rng)
        events += cold_events
    receipt = _post(url + "/events",
                    {"dataset": dataset_name, "model": model_name,
                     "events": events})
    cold_ids = receipt.get("cold_item_ids", [])
    print(f"smoke ingest: {receipt['accepted']} events accepted "
          f"({receipt['cold_items']} cold, ids {cold_ids})")
    if receipt["accepted"] != len(events):
        failures.append("ingest did not accept every event")

    done = worker.run_steps(steps)
    print(f"smoke fine-tune: {done} incremental steps")
    if done < 1:
        failures.append("no fine-tune step ran (empty replay buffer?)")

    swap = _post(url + "/swap",
                 {"dataset": dataset_name, "model": model_name})
    print(f"smoke swap: kind={swap['kind']} v{swap['version']} "
          f"({swap['latency_ms']:.1f} ms, "
          f"{swap['reencoded_items']} rows re-encoded)")
    gate = swap.get("gate")
    if gate:
        print(f"smoke gate: {gate['reason']} on {gate['examples']} "
              f"examples (deltas {gate['deltas']}, "
              f"{gate['eval_ms']:.1f} ms)")
    if swap["version"] != version_before + 1:
        failures.append(f"swap version {swap['version']} != "
                        f"{version_before + 1}")
    if done >= 1 and swap["kind"] != "full":
        failures.append(f"swap kind {swap['kind']!r}, expected 'full'")

    probe = history + [int(i) for i in cold_ids]
    answer = _post(url + "/recommend",
                   {"dataset": dataset_name, "model": model_name,
                    "history": probe, "k": 10})
    print(f"smoke recommend: v{answer['index_version']} "
          f"top-{len(answer['items'])} ({answer['latency_ms']:.1f} ms, "
          f"history includes cold ids {cold_ids})")
    if answer["index_version"] != swap["version"]:
        failures.append("post-swap answer served a stale index version")
    fresh = service.registry.get(dataset_name, model_name)
    expected = fresh.recommender.recommend(probe, k=10)
    if list(answer["items"]) != [int(i) for i in expected.items]:
        failures.append("served top-k != direct retrieval on the new "
                        "generation")

    stats = _get(url + "/stats")
    stream_stats = stats.get("stream", {}).get(
        f"{dataset_name}:{model_name}", {})
    print(f"smoke stats: swaps={stream_stats.get('swaps')} "
          f"steps={stream_stats.get('steps')} "
          f"events={stream_stats.get('events_total')} "
          f"staleness={stream_stats.get('staleness_s', 0):.1f}s")
    if stream_stats.get("swaps", 0) < 1:
        failures.append("/stats does not report the swap")
    if stream_stats.get("events_total", 0) != receipt["events_total"]:
        failures.append("/stats event counter disagrees with the receipt")

    for failure in failures:
        print(f"smoke FAILURE: {failure}")
    print("stream smoke:", "PASS" if not failures else "FAIL")
    return 1 if failures else 0
