"""Goldens for what a scraper sees: ``GET /metrics`` and ``GET /timeline``.

These pin the externally visible output of the metrics pipeline on
both serving tiers, so the internal data model behind it can change
without anyone downstream noticing:

* the in-process exposition text, byte for byte — escaped label
  values, a pull gauge whose callback raises (``nan``), and a
  histogram with non-default bucket geometry;
* the pooled exposition as a ``parse_prometheus`` dict (the merge may
  order families differently), taken in a fresh interpreter so the
  per-worker series start from zero;
* ``/timeline?metric=…`` JSON for a scripted sample sequence.

Every value is one ``{:g}`` prints exactly, and every histogram has
bounds (1, 2, 4) that six significant digits print exactly.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import subprocess
import sys
import urllib.request

import pytest

import repro
from repro.obs import metrics
from repro.serve import ModelRegistry, RecommendationService, make_server

T0 = 3_000_000.0

#: Histogram geometry whose bucket bounds (1, 2, 4, +Inf) print exactly.
GEOMETRY = {"start": 1.0, "factor": 2.0, "buckets": 4}


@pytest.fixture()
def served():
    """An in-process service with no scenarios behind a live server."""
    service = RecommendationService(ModelRegistry(profile="smoke"))
    server = make_server(service, port=0)
    server.start_background()
    yield server, service
    server.shutdown()
    server.server_close()
    service.close()


def _get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.read().decode()


def _family_lines(text: str, prefix: str) -> str:
    """The exposition lines (metadata included) of families under prefix."""
    kept = []
    for line in text.splitlines():
        name = line.split()[2] if line.startswith("# ") else line
        if name.startswith(prefix):
            kept.append(line)
    return "\n".join(kept) + "\n"


GOLDEN_IN_PROCESS = """\
# HELP golden_dead_depth a pull gauge whose callback raises
# TYPE golden_dead_depth gauge
golden_dead_depth nan
# TYPE golden_level gauge
golden_level{scope="a"} 0.25
golden_level{scope="b"} 3
# HELP golden_requests_total requests by path
# TYPE golden_requests_total counter
golden_requests_total{code="200",path="a\\"b\\\\c\\nd"} 7
golden_requests_total{code="500",path="/x"} 123456
# HELP golden_size batch sizes
# TYPE golden_size histogram
golden_size_bucket{scenario="x:y",le="1"} 1
golden_size_bucket{scenario="x:y",le="2"} 1
golden_size_bucket{scenario="x:y",le="4"} 3
golden_size_bucket{scenario="x:y",le="+Inf"} 4
golden_size_sum{scenario="x:y"} 107
golden_size_count{scenario="x:y"} 4
"""


def test_in_process_metrics_text_golden(served):
    server, _ = served
    metrics.counter("golden_requests_total", "requests by path",
                    labels={"path": 'a"b\\c\nd', "code": "200"}).inc(7)
    metrics.counter("golden_requests_total", "requests by path",
                    labels={"path": "/x", "code": "500"}).inc(123456)
    metrics.gauge("golden_level", labels={"scope": "b"}).set(3)
    metrics.gauge("golden_level", labels={"scope": "a"}).set(0.25)
    dead = metrics.gauge("golden_dead_depth",
                         "a pull gauge whose callback raises")
    dead.set_function(lambda: 1 / 0)
    hist = metrics.histogram("golden_size", "batch sizes",
                             labels={"scenario": "x:y"}, **GEOMETRY)
    try:
        for value in (1, 3, 3, 100):
            hist.observe(value)
        text = _get(server, "/metrics")
    finally:
        dead.set_function(None)
    assert _family_lines(text, "golden_") == GOLDEN_IN_PROCESS


# -- pooled tier ---------------------------------------------------------------

#: Runs in a fresh interpreter: golden families are created (and given
#: values) in the parent before the pool forks, so each worker holds a
#: zeroed copy; one more is created after the fork (parent only); six
#: distinct requests put worker-only series into the merge. One
#: keep-alive connection carries every request, so the handler thread
#: has counted each one before it reads the scrape.
POOLED_SCRIPT = r"""
import http.client, json
from repro.obs import metrics
from repro.serve import ModelRegistry, RecommendationService, make_server

metrics.counter("golden_pool_total", "golden counter",
                labels={"path": 'a"b'}).inc(5)
metrics.gauge("golden_pool_level", "golden gauge").set(2)
metrics.gauge("golden_pool_dead").set_function(lambda: 1 / 0)
hist = metrics.histogram("golden_pool_size", "golden histogram",
                         start=1.0, factor=2.0, buckets=4)
for value in (1, 3, 100):
    hist.observe(value)
registry = ModelRegistry(profile="smoke", dtype="float32")
registry.add("kwai_food:sasrec", seed=0)
service = RecommendationService(registry, workers=2)
metrics.counter("golden_pool_late_total").inc(3)
server = make_server(service, port=0)
server.start_background()
conn = http.client.HTTPConnection("127.0.0.1", server.server_address[1],
                                  timeout=30)
try:
    scenario = registry.get("kwai_food", "sasrec")
    for row in range(6):
        history = [int(i) for i in scenario.dataset.split.test[row].history]
        conn.request("POST", "/recommend", body=json.dumps(
            {"dataset": "kwai_food", "model": "sasrec",
             "history": history, "k": 5}),
            headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        response.read()
        assert response.status == 200
    conn.request("GET", "/metrics")
    text = conn.getresponse().read().decode()
finally:
    conn.close()
    server.shutdown()
    server.server_close()
    service.close()
print(json.dumps(text))
"""

SCENARIO = '{scenario="kwai_food:sasrec"}'

#: Families whose pooled values are fixed by the script above.
POOLED_FAMILIES = ("golden_pool_", "repro_pool_workers_",
                   "repro_serve_batcher_requests_total",
                   "repro_serve_cache_total", "repro_serve_batch_size",
                   "repro_serve_request_seconds_count",
                   "repro_http_requests_total")

GOLDEN_POOLED = {
    # Counters and histograms add across the parent and two zeroed
    # worker copies; gauges take the max, and the parent's NaN loses
    # to the workers' 0.
    ("golden_pool_total", '{path="a\\"b"}'): 5.0,
    ("golden_pool_level", ""): 2.0,
    ("golden_pool_dead", ""): 0.0,
    ("golden_pool_late_total", ""): 3.0,
    ("golden_pool_size_bucket", '{le="1"}'): 1.0,
    ("golden_pool_size_bucket", '{le="2"}'): 1.0,
    ("golden_pool_size_bucket", '{le="4"}'): 2.0,
    ("golden_pool_size_bucket", '{le="+Inf"}'): 3.0,
    ("golden_pool_size_sum", ""): 104.0,
    ("golden_pool_size_count", ""): 3.0,
    ("repro_pool_workers_alive", ""): 2.0,
    ("repro_pool_workers_total", ""): 2.0,
    # Worker-only series summed over both workers.
    ("repro_serve_batcher_requests_total", SCENARIO): 6.0,
    ("repro_serve_batch_size_sum", SCENARIO): 6.0,
    ("repro_serve_batch_size_count", SCENARIO): 6.0,
    # Parent-only series.
    ("repro_serve_cache_total",
     '{outcome="hit",scenario="kwai_food:sasrec"}'): 0.0,
    ("repro_serve_cache_total",
     '{outcome="miss",scenario="kwai_food:sasrec"}'): 6.0,
    ("repro_serve_request_seconds_count", SCENARIO): 6.0,
    ("repro_http_requests_total",
     '{method="POST",path="/recommend",status="200"}'): 6.0,
}


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="POSIX shared memory filesystem required")
def test_pooled_metrics_golden():
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", POOLED_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    text = json.loads(done.stdout.strip().splitlines()[-1])
    type_lines = [line for line in text.splitlines()
                  if line.startswith("# TYPE ")]
    assert len(type_lines) == len(set(type_lines))
    parsed = metrics.parse_prometheus(text)
    got = {key: value for key, value in parsed.items()
           if key[0].startswith(POOLED_FAMILIES)}
    buckets = {key: got.pop(key) for key in list(got)
               if key[0] == "repro_serve_batch_size_bucket"}
    assert got == GOLDEN_POOLED
    # A batch of one lands in the first bucket of the batcher's
    # 64-bucket layout, so every cumulative bucket holds all six.
    assert len(buckets) == metrics.DEFAULT_BUCKETS
    assert set(buckets.values()) == {6.0}


# -- /timeline -----------------------------------------------------------------


def test_timeline_export_golden(served):
    server, service = served
    monitor = service.enable_monitoring(start=False)
    counter = metrics.counter("golden_tl_total", "golden timeline counter",
                              labels={"path": 'a"b'})
    level = metrics.gauge("golden_tl_level", labels={"scope": "a"})
    hist = metrics.histogram("golden_tl_size", labels={"scenario": "x:y"},
                             **GEOMETRY)
    script = [
        # (seconds after T0, counter increment, gauge level, observations)
        (0, 0, 1.0, ()),
        (2, 4, 2.5, (1, 3, 3)),
        (4, 8, 0.5, ()),
        (5, 2, 4.0, (100, 3)),
    ]
    for offset, inc, value, observations in script:
        counter.inc(inc)
        level.set(value)
        for observation in observations:
            hist.observe(observation)
        monitor.timeline.sample(now=T0 + offset)

    def export(metric):
        return json.loads(_get(server, f"/timeline?metric={metric}"))

    assert export("golden_tl_total") == {
        "monitoring": True, "metric": "golden_tl_total",
        "window_s": 300.0, "interval_s": 1.0,
        "series": [{"labels": '{path="a\\"b"}', "kind": "counter",
                    "points": [[T0 + 2, 2.0], [T0 + 4, 4.0],
                               [T0 + 5, 2.0]]}]}
    assert export("golden_tl_level") == {
        "monitoring": True, "metric": "golden_tl_level",
        "window_s": 300.0, "interval_s": 1.0,
        "series": [{"labels": '{scope="a"}', "kind": "gauge",
                    "points": [[T0, 1.0], [T0 + 2, 2.5], [T0 + 4, 0.5],
                               [T0 + 5, 4.0]]}]}
    # [ts, observations/s, p50, p99] per tick; p50/p99 are geometric
    # bucket midpoints: bucket (2, 4] -> sqrt(8), overflow -> sqrt(32).
    assert export("golden_tl_size") == {
        "monitoring": True, "metric": "golden_tl_size",
        "window_s": 300.0, "interval_s": 1.0,
        "series": [{"labels": '{scenario="x:y"}', "kind": "histogram",
                    "points": [[T0 + 2, 1.5, math.sqrt(8.0),
                                math.sqrt(8.0)],
                               [T0 + 4, 0.0, None, None],
                               [T0 + 5, 2.0, math.sqrt(8.0),
                                math.sqrt(32.0)]]}]}
