"""Per-layer metrics and the request waterfall from a traced run.

Inputs are the spans ``tracer.py`` wrote (server parent plus each pool
worker), the ``/metrics`` scrapes taken at the edges of the timed
window, and the client's own latency samples. Span times are cut to the
window by their start. Worker-side means that spans cannot give (queue
wait, flush triggers, swap phases) come from ``_sum / _count`` deltas of
the server's histograms, which are exact.

The waterfall expresses every row as milliseconds per ``/recommend``
request, so the rows add up to the client's mean latency: work done once
per micro-batch counts once for each request that waited on it, and
``client.unattributed`` is the client mean minus the server handler mean
(socket, request-line parsing, the client itself).
"""

from __future__ import annotations

from collections import defaultdict

from client import histogram_delta, metric_sum

__all__ = ["PER_LAYER", "analyse", "render_waterfall"]

#: (name, unit) of every per-layer metric, in request order where one
#: exists. All are reported on every workload; a layer a workload does
#: not exercise reads 0.
PER_LAYER = (
    ("serve.http.self_ms", "ms"),
    ("serve.service.self_ms", "ms"),
    ("serve.pool.roundtrip_ms", "ms"),
    ("serve.pool.hop_ms", "ms"),
    ("serve.pool.retries", "count"),
    ("serve.batcher.submit_ms", "ms"),
    ("serve.batcher.queue_wait_ms", "ms"),
    ("serve.batcher.timer_flush_frac", "ratio"),
    ("serve.batcher.batch_size", "count"),
    ("serve.batcher.cache_hit_ratio", "ratio"),
    ("serve.batcher.handoff_ms", "ms"),
    ("serve.recommender.batch_ms", "ms"),
    ("serve.recommender.score_ms", "ms"),
    ("serve.recommender.topk_ms", "ms"),
    ("serve.index.build_ms", "ms"),
    ("obs.tick_ms", "ms"),
    ("obs.ticks", "count"),
    ("obs.series", "count"),
    ("train.step_ms", "ms"),
    ("train.steps", "count"),
    ("stream.ingest_ms", "ms"),
    ("stream.round_ms", "ms"),
    ("stream.swap.pre_warm_ms", "ms"),
    ("stream.swap.index_build_ms", "ms"),
    ("stream.swap.gate_ms", "ms"),
    ("stream.swap.publish_ms", "ms"),
    ("stream.swap.drain_ms", "ms"),
    ("stream.swaps_published", "count"),
    ("stream.swaps_rejected", "count"),
    ("setup.import_s", "s"),
    ("setup.dataset_s", "s"),
    ("setup.model_s", "s"),
    ("setup.index_s", "s"),
    ("setup.pool_s", "s"),
    ("client.mean_ms", "ms"),
    ("client.unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
)

SWAP_PHASES = ("pre_warm", "index_build", "gate", "publish", "drain")


class _Spans:
    """Spans of one process, indexed by name, cut to a window."""

    def __init__(self, spans: list, start: float, end: float):
        self.all = spans
        self.by_name: dict[str, list] = defaultdict(list)
        for span in spans:
            if start <= span[1] < end:
                self.by_name[span[0]].append(span)

    def get(self, name: str, path: str | None = None) -> list:
        spans = self.by_name.get(name, [])
        if path is not None:
            spans = [s for s in spans if s[5] == path]
        return spans


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _dur(span) -> float:
    return (span[2] - span[1]) * 1e3


def _self(span) -> float:
    return (span[2] - span[1] - span[3]) * 1e3


def _batch_shares(spans: list[_Spans]) -> dict:
    """Per-batch means and per-request-weighted totals of the model pass.

    A request waits for the whole batch it rode in, so its share of a
    batch stage is the stage's duration; summed over requests that is
    ``batch_size * duration`` per batch.
    """
    out = defaultdict(float)
    for proc in spans:
        children = defaultdict(lambda: defaultdict(float))
        for name in ("serve.recommender.score", "serve.recommender.topk"):
            for span in proc.get(name):
                children[span[7]][name] += _dur(span)
        for span in proc.get("serve.recommender"):
            size = span[5] or 1
            score = children[span[6]]["serve.recommender.score"]
            topk = children[span[6]]["serve.recommender.topk"]
            out["batches"] += 1
            out["batch_ms"] += _dur(span)
            out["score_ms"] += score
            out["topk_ms"] += topk
            out["req_self"] += size * (_dur(span) - score - topk)
            out["req_score"] += size * score
            out["req_topk"] += size * topk
    return out


def analyse(server: dict, workers: list[dict], window: tuple[float, float],
            before, after, final, client_latencies_ms: list[float],
            untraced_p50_ms: float, traced_p50_ms: float) -> tuple[dict, list]:
    """Per-layer metrics (name -> value) and the waterfall rows.

    ``before`` / ``after`` are the scrapes at the window's edges;
    ``final`` is taken once the last event wave's swap is visible, so
    the write-path counters include every swap the window's waves set
    off (it equals ``after`` on workloads without writes).
    """
    start, end = window
    parent = _Spans(server["spans"], start, end)
    procs = [parent] + [_Spans(w["spans"], start, end) for w in workers]
    m: dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}

    handlers = parent.get("serve.http", "/recommend")
    requests = len(handlers)
    handler_ms = _mean(_dur(s) for s in handlers)
    m["serve.http.self_ms"] = _mean(_self(s) for s in handlers)
    m["serve.service.self_ms"] = _mean(_self(s)
                                       for s in parent.get("serve.service"))

    roundtrips = parent.get("serve.pool")
    m["serve.pool.roundtrip_ms"] = _mean(_dur(s) for s in roundtrips)
    m["serve.pool.retries"] = (
        metric_sum(after, "repro_pool_retries_total")
        - metric_sum(before, "repro_pool_retries_total"))

    submits = [s for p in procs for s in p.get("serve.batcher.submit")]
    m["serve.batcher.submit_ms"] = _mean(_dur(s) for s in submits)
    wait_s, waited = histogram_delta(before, after,
                                     "repro_serve_queue_wait_seconds")
    m["serve.batcher.queue_wait_ms"] = wait_s * 1e3 / waited if waited else 0.0
    flushes = {trigger: metric_sum(after, "repro_serve_flushes_total",
                                   trigger=trigger)
               - metric_sum(before, "repro_serve_flushes_total",
                            trigger=trigger)
               for trigger in ("size", "timeout")}
    total_flushes = sum(flushes.values())
    m["serve.batcher.timer_flush_frac"] = (
        flushes["timeout"] / total_flushes if total_flushes else 0.0)
    size_sum, size_count = histogram_delta(before, after,
                                           "repro_serve_batch_size")
    m["serve.batcher.batch_size"] = (size_sum / size_count if size_count
                                     else 0.0)
    hits, misses = (metric_sum(after, "repro_serve_cache_total", outcome=o)
                    - metric_sum(before, "repro_serve_cache_total", outcome=o)
                    for o in ("hit", "miss"))
    m["serve.batcher.cache_hit_ratio"] = (hits / (hits + misses)
                                          if hits + misses else 0.0)

    shares = _batch_shares(procs)
    batches = shares["batches"]
    if batches:
        m["serve.recommender.batch_ms"] = shares["batch_ms"] / batches
        m["serve.recommender.score_ms"] = shares["score_ms"] / batches
        m["serve.recommender.topk_ms"] = shares["topk_ms"] / batches
    per_req = max(requests, 1)
    queue_share = wait_s * 1e3 / per_req
    rec_self = shares["req_self"] / per_req
    rec_score = shares["req_score"] / per_req
    rec_topk = shares["req_topk"] / per_req
    model_share = rec_self + rec_score + rec_topk

    in_process = parent.get("serve.batcher")
    if in_process:
        waits = _mean(_self(s) for s in in_process)
        m["serve.batcher.handoff_ms"] = waits - queue_share - model_share
    if roundtrips:
        worker_side = (m["serve.batcher.submit_ms"] + queue_share
                       + model_share)
        m["serve.pool.hop_ms"] = m["serve.pool.roundtrip_ms"] - worker_side

    builds = [s for p in procs for s in p.get("serve.index.build")]
    m["serve.index.build_ms"] = _mean(_dur(s) for s in builds)
    ticks = parent.get("obs.tick")
    tick_ids = {s[6] for s in ticks}
    # Rule evaluation runs as a listener inside the sample today; an
    # evaluation outside it still counts toward the tick.
    outside = sum(_dur(s) for s in parent.get("obs.evaluate")
                  if s[7] not in tick_ids)
    m["obs.tick_ms"] = ((sum(_dur(s) for s in ticks) + outside) / len(ticks)
                        if ticks else 0.0)
    m["obs.ticks"] = len(ticks)
    m["obs.series"] = max((s[5] or 0 for s in ticks), default=0)
    steps = parent.get("train.step")
    m["train.step_ms"] = _mean(_dur(s) for s in steps)
    m["train.steps"] = len(steps)
    m["stream.ingest_ms"] = _mean(_dur(s) for s in parent.get("stream.ingest"))
    round_s, rounds = histogram_delta(before, final,
                                      "repro_stream_round_seconds")
    m["stream.round_ms"] = round_s * 1e3 / rounds if rounds else 0.0
    for phase in SWAP_PHASES:
        total, count = histogram_delta(before, final,
                                       "repro_stream_swap_phase_seconds",
                                       phase=phase)
        m[f"stream.swap.{phase}_ms"] = total * 1e3 / count if count else 0.0
    swaps = {kind: metric_sum(final, "repro_stream_swaps_total", kind=kind)
             - metric_sum(before, "repro_stream_swaps_total", kind=kind)
             for kind in ("full", "catalog", "rejected")}
    m["stream.swaps_published"] = swaps["full"] + swaps["catalog"]
    m["stream.swaps_rejected"] = swaps["rejected"]

    ready = server.get("ready") or float("inf")

    def setup_total(*names: str) -> float:
        return sum(s[2] - s[1] for s in parent.all
                   if s[0] in names and s[2] <= ready)

    m["setup.import_s"] = server.get("import_s", 0.0)
    m["setup.dataset_s"] = setup_total("setup.dataset")
    m["setup.model_s"] = setup_total("setup.model", "stream.build_model")
    m["setup.index_s"] = setup_total("serve.index.build")
    m["setup.pool_s"] = setup_total("setup.pool")

    client_mean = _mean(client_latencies_ms)
    m["client.mean_ms"] = client_mean
    m["client.unattributed_ms"] = client_mean - handler_ms
    m["trace.overhead_ms"] = traced_p50_ms - untraced_p50_ms

    rows = [("serve.http.self", m["serve.http.self_ms"]),
            ("serve.service.self", m["serve.service.self_ms"])]
    if roundtrips:
        rows.append(("serve.pool.hop", m["serve.pool.hop_ms"]))
    rows += [("serve.batcher.submit",
              m["serve.batcher.submit_ms"] * len(submits) / per_req),
             ("serve.batcher.queue_wait", queue_share),
             ("serve.recommender.self", rec_self),
             ("serve.recommender.score", rec_score),
             ("serve.recommender.topk", rec_topk)]
    if in_process:
        rows.append(("serve.batcher.handoff", m["serve.batcher.handoff_ms"]))
    rows.append(("client.unattributed", m["client.unattributed_ms"]))
    return m, rows


def render_waterfall(workload: str, rows: list, m: dict) -> str:
    """The printed waterfall: request-order rows, then the write path."""
    total = sum(value for _, value in rows)
    lines = [f"waterfall {workload} (ms per /recommend, request order)"]
    for name, value in rows:
        share = 100.0 * value / total if total else 0.0
        lines.append(f"  {name:<28} {value:9.4f}  {share:5.1f}%")
    lines.append(f"  {'= sum of rows':<28} {total:9.4f}  "
                 f"(client mean {m['client.mean_ms']:.4f})")
    lines.append(f"  {'tracing overhead (p50)':<28} "
                 f"{m['trace.overhead_ms']:9.4f}  traced - untraced")
    if m["train.steps"] or m["stream.swaps_published"]:
        lines.append("  write path: " + ", ".join(
            f"{name}={m[name]:.3f}" for name in
            ("stream.ingest_ms", "stream.round_ms", "train.step_ms",
             "train.steps", *(f"stream.swap.{p}_ms" for p in SWAP_PHASES),
             "serve.index.build_ms", "stream.swaps_published",
             "stream.swaps_rejected")))
    lines.append("  setup: " + ", ".join(
        f"{name}={m[name]:.3f}" for name in
        ("setup.import_s", "setup.dataset_s", "setup.model_s",
         "setup.index_s", "setup.pool_s")))
    return "\n".join(lines)
