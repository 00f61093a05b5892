"""End-to-end observability: /metrics, the access log, and live traces.

Starts the real HTTP server in-process with tracing at rate 1.0 and an
access-log sink, drives traffic, and pins the PR's acceptance bar: a
sampled request's spans (parse → queue_wait → batch stages → respond)
sum, within scheduling slack, to the observed end-to-end latency — and
the same for a hot swap's phase spans.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.obs import metrics, trace
from repro.serve import ModelRegistry, RecommendationService, make_server
from repro.stream import StreamConfig, StreamManager, parse_events

#: Slack allowed between span_sum_ms and total_ms: spans cover the
#: instrumented stages; thread scheduling and the uninstrumented
#: gaps between them account for the remainder.
_COVERAGE = 0.5


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Server + service with sampling at 1.0 and JSONL sinks attached."""
    tmp = tmp_path_factory.mktemp("obs")
    trace_log = tmp / "traces.jsonl"
    access_log = tmp / "access.jsonl"
    trace.configure(sample_rate=1.0, path=str(trace_log))
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:sasrec", seed=0)
    service = RecommendationService(registry, max_batch=8,
                                    max_wait_ms=2.0, cache_size=64)
    server = make_server(service, port=0, access_log=str(access_log))
    server.start_background()
    yield server, service, trace_log, access_log
    server.shutdown()
    server.server_close()
    service.close()
    trace.configure(sample_rate=0.0)
    trace.TRACER.close()


def _post(server, path, payload):
    request = urllib.request.Request(
        server.url + path, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=30) as response:
        return response.status, json.load(response)


def _get_text(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, response.read().decode()


def _recommend(server, service, row=0, k=5):
    scenario = service.registry.get("kwai_food", "sasrec")
    history = [int(i) for i in scenario.dataset.split.test[row].history]
    return _post(server, "/recommend",
                 {"dataset": "kwai_food", "model": "sasrec",
                  "history": history, "k": k})


def _await_log_line(path, predicate, timeout=5.0):
    """Poll a JSONL sink for a matching line.

    The handler writes its access-log line *after* the response bytes
    flush, so the client can observe the body before the line lands —
    a short poll instead of a single read keeps the assertion honest.
    """
    deadline = time.perf_counter() + timeout
    while True:
        for line in reversed(path.read_text().splitlines()):
            record = json.loads(line)
            if predicate(record):
                return record
        if time.perf_counter() >= deadline:
            raise AssertionError(f"no matching line in {path}")
        time.sleep(0.01)


def test_metrics_endpoint_parses_with_core_series(traced):
    server, service, _, _ = traced
    status, _ = _recommend(server, service, row=0)
    assert status == 200
    status, text = _get_text(server, "/metrics")
    assert status == 200
    parsed = metrics.parse_prometheus(text)
    names = {name for name, _ in parsed}
    for required in ("repro_http_requests_total",
                     "repro_serve_request_seconds_count",
                     "repro_serve_batcher_requests_total",
                     "repro_serve_batch_size_count",
                     "repro_serve_queue_wait_seconds_count",
                     "repro_serve_stage_seconds_count"):
        assert required in names, f"missing series {required}"
    request_counts = [v for (name, labels), v in parsed.items()
                      if name == "repro_serve_request_seconds_count"
                      and "kwai_food:sasrec" in labels]
    assert request_counts and request_counts[0] >= 1.0


def test_sampled_request_trace_spans_sum_to_e2e_latency(traced):
    """Acceptance: trace span durations ≈ the observed total latency."""
    server, service, trace_log, _ = traced
    status, payload = _recommend(server, service, row=1)
    assert status == 200
    assert "trace_id" in payload
    record = _await_log_line(
        trace_log, lambda r: r.get("trace_id") == payload["trace_id"])
    assert record["kind"] == "request" and record["status"] == 200
    names = [s["name"] for s in record["spans"]]
    assert names[0] == "parse" and names[-1] == "respond"
    assert "queue_wait" in names            # crossed the batcher handoff
    assert "topk" in names                  # batch stages adopted
    assert "encode" in names or "score" in names   # ANN or full-sort path
    assert record["span_sum_ms"] <= record["total_ms"] * 1.01
    assert record["span_sum_ms"] >= record["total_ms"] * _COVERAGE, \
        f"spans cover too little: {record}"
    # Spans are chronological and within the trace window.
    starts = [s["start_ms"] for s in record["spans"]]
    assert starts == sorted(starts)
    assert starts[0] >= -1e-6


def test_trace_id_propagates_to_access_log(traced):
    server, service, _, access_log = traced
    status, payload = _recommend(server, service, row=2)
    assert status == 200
    entry = _await_log_line(
        access_log, lambda r: r.get("trace_id") == payload["trace_id"])
    assert entry["method"] == "POST"
    assert entry["path"] == "/recommend"
    assert entry["status"] == 200
    assert entry["latency_ms"] > 0.0
    # Untraced routes log too, with a null trace id.
    _get_text(server, "/health")
    health = _await_log_line(access_log,
                             lambda r: r["path"] == "/health")
    assert health["status"] == 200 and health["trace_id"] is None


def test_stats_reports_o1_latency_quantiles(traced):
    server, service, _, _ = traced
    _recommend(server, service, row=3)
    _, text = _get_text(server, "/stats")
    stats = json.loads(text)
    latency = stats["scenarios"]["kwai_food:sasrec"]["latency_ms"]
    assert latency["count"] >= 1
    assert 0.0 < latency["p50"] <= latency["p99"]


def test_unknown_route_collapses_to_other_label(traced):
    server, service, _, _ = traced
    try:
        _get_text(server, "/definitely/not/a/route")
    except urllib.error.HTTPError:
        pass
    _, text = _get_text(server, "/metrics")
    parsed = metrics.parse_prometheus(text)
    other = [labels for (name, labels) in parsed
             if name == "repro_http_requests_total"
             and 'path="other"' in labels]
    assert other, "unknown paths must collapse to the 'other' label"
    known = [labels for (name, labels) in parsed
             if name == "repro_http_requests_total"]
    assert not any("definitely" in labels for labels in known)


def test_sampled_hot_swap_trace_phases_sum_to_total(tmp_path, rng):
    """Acceptance: a sampled swap's phase spans ≈ its e2e latency."""
    trace_log = tmp_path / "swap_traces.jsonl"
    trace.configure(sample_rate=1.0, path=str(trace_log))
    registry = ModelRegistry(profile="smoke", dtype="float32")
    registry.add("kwai_food:pmmrec-text", seed=0)
    service = RecommendationService(registry)
    try:
        manager = StreamManager(
            service, StreamConfig(batch_size=4, steps_per_swap=2, seed=0),
            start=False)
        service.attach_stream(manager)
        worker = manager.worker("kwai_food", "pmmrec-text")
        dataset = worker.data
        events = []
        for _ in range(8):
            user = int(rng.integers(0, dataset.num_users))
            seq = dataset.sequences[user]
            events.append({"user": user,
                           "item": int(seq[rng.integers(0, len(seq))])})
        worker.ingest(parse_events(events))
        worker.run_steps(2)
        report = worker.swap()
        assert report.kind == "full"
    finally:
        service.close()
        trace.configure(sample_rate=0.0)
        trace.TRACER.close()
    records = [json.loads(line)
               for line in trace_log.read_text().splitlines()]
    swap = next(r for r in records if r["kind"] == "swap")
    assert swap["swap_kind"] == "full"
    assert swap["name"] == "kwai_food:pmmrec-text"
    assert swap["version"] == report.version
    names = [s["name"] for s in swap["spans"]]
    for phase in ("snapshot", "pre_warm", "index_build", "gate",
                  "checkpoint", "publish", "fence", "drain"):
        assert phase in names, f"missing swap phase {phase}"
    assert swap["span_sum_ms"] <= swap["total_ms"] * 1.01
    assert swap["span_sum_ms"] >= swap["total_ms"] * _COVERAGE
    # Every phase this trace recorded reached this scenario's phase
    # histograms too (other tests' scenarios share the registry).
    _, _, series = metrics.REGISTRY.collect()[
        "repro_stream_swap_phase_seconds"]
    phase_counts = {dict(key)["phase"]: snap.total
                    for key, snap in series.items()
                    if dict(key)["scenario"] == "kwai_food:pmmrec-text"}
    for phase in names:
        assert phase_counts.get(phase, 0) >= 1, \
            f"phase {phase} missing from the registry: {phase_counts}"
