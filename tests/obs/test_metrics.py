"""Metrics registry: shard safety, quantile accuracy, exposition."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.obs.metrics import (DEFAULT_FACTOR, Histogram, MetricsRegistry,
                               merge, parse_label_string, parse_prometheus,
                               render)


@pytest.fixture()
def registry():
    return MetricsRegistry()


# -- counters / thread sharding ------------------------------------------------


def test_counter_accumulates_and_is_monotonic(registry):
    c = registry.counter("reqs_total")
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5
    assert registry.counter("reqs_total") is c   # get-or-create


def test_counter_multithread_hammer_no_lost_updates(registry):
    """N threads x M increments: the merged total is exact, and a
    concurrent reader only ever sees the value go up."""
    c = registry.counter("hammer_total")
    threads, per_thread = 8, 20_000
    monotonic_ok = [True]
    stop = threading.Event()

    def reader():
        last = 0.0
        while not stop.is_set():
            now = c.value
            if now < last:
                monotonic_ok[0] = False
            last = now

    def writer():
        for _ in range(per_thread):
            c.inc()

    watcher = threading.Thread(target=reader)
    watcher.start()
    workers = [threading.Thread(target=writer) for _ in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    stop.set()
    watcher.join()
    assert c.value == threads * per_thread
    assert monotonic_ok[0], "reader observed a counter decrease"


def test_histogram_multithread_hammer_no_torn_merges(registry):
    hist = registry.histogram("hammer_seconds")
    threads, per_thread = 8, 5_000

    def writer(seed):
        rng = np.random.default_rng(seed)
        for value in rng.uniform(1e-4, 1e-1, size=per_thread):
            hist.observe(float(value))

    workers = [threading.Thread(target=writer, args=(i,))
               for i in range(threads)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    snap = hist.snapshot()
    assert snap.total == threads * per_thread
    assert sum(snap.counts) == snap.total
    assert 1e-4 * snap.total < snap.sum < 1e-1 * snap.total


# -- histogram quantile accuracy ----------------------------------------------


@pytest.mark.parametrize("dist", ["uniform", "lognormal", "exponential"])
@pytest.mark.parametrize("q", [0.50, 0.95, 0.99])
def test_quantile_tracks_numpy_percentile(registry, dist, q):
    """Geometric-midpoint estimates stay within the bucket-width bound
    (a factor of sqrt(factor) each way at the default sqrt(2) layout)."""
    rng = np.random.default_rng(7)
    values = {"uniform": rng.uniform(1e-4, 2e-1, 50_000),
              "lognormal": rng.lognormal(-6.0, 1.0, 50_000),
              "exponential": rng.exponential(5e-3, 50_000)}[dist]
    hist = registry.histogram(f"acc_{dist}_seconds")
    for value in values:
        hist.observe(float(value))
    estimate = hist.quantile(q)
    truth = float(np.percentile(values, q * 100))
    tolerance = DEFAULT_FACTOR ** 0.5           # one half-bucket, each way
    assert truth / tolerance <= estimate <= truth * tolerance


def test_quantile_edge_cases(registry):
    hist = registry.histogram("edge_seconds")
    assert np.isnan(hist.quantile(0.5))          # empty
    hist.observe(1e-9)                           # underflow bucket
    assert hist.quantile(0.5) == hist.bounds[0]
    hist2 = registry.histogram("edge2_seconds")
    hist2.observe(1e9)                           # overflow bucket
    assert hist2.quantile(0.5) >= hist2.bounds[-1]


def test_snapshot_minus_isolates_a_window(registry):
    hist = registry.histogram("window_seconds")
    for _ in range(100):
        hist.observe(1e-3)
    before = hist.snapshot()
    for _ in range(50):
        hist.observe(1.0)
    delta = hist.snapshot().minus(before)
    assert delta.total == 50
    assert delta.mean == pytest.approx(1.0, rel=1e-6)
    summary = delta.to_json(scale=1e3)
    assert summary["count"] == 50
    assert summary["p50"] == pytest.approx(1e3, rel=0.25)


def test_histogram_mean_and_count(registry):
    hist = registry.histogram("mc_seconds")
    assert hist.count == 0
    for value in (1.0, 2.0, 3.0):
        hist.observe(value)
    assert hist.count == 3
    assert hist.snapshot().mean == pytest.approx(2.0)


# -- gauges --------------------------------------------------------------------


def test_gauge_set_add_and_function(registry):
    g = registry.gauge("depth")
    g.set(4)
    g.add(2)
    assert g.value == 6.0
    g.set_function(lambda: 41 + 1)
    assert g.value == 42.0


def test_gauge_dead_callback_yields_nan_not_crash(registry):
    g = registry.gauge("dead")
    g.set_function(lambda: 1 / 0)
    assert np.isnan(g.value)
    assert "dead" in registry.render()           # exposition survives


# -- naming / labels -----------------------------------------------------------


def test_invalid_names_and_labels_rejected(registry):
    with pytest.raises(ValueError, match="invalid metric name"):
        registry.counter("bad-name")
    with pytest.raises(ValueError, match="invalid label name"):
        registry.counter("ok_name", labels={"bad-label": "x"})


def test_label_sets_are_distinct_series(registry):
    a = registry.counter("labeled_total", labels={"scenario": "a"})
    b = registry.counter("labeled_total", labels={"scenario": "b"})
    assert a is not b
    a.inc(3)
    b.inc(4)
    parsed = parse_prometheus(registry.render())
    assert parsed[("labeled_total", '{scenario="a"}')] == 3.0
    assert parsed[("labeled_total", '{scenario="b"}')] == 4.0


# -- exposition ----------------------------------------------------------------


def test_prometheus_render_parse_round_trip(registry):
    registry.counter("rt_total", help="a counter").inc(7)
    registry.gauge("rt_depth").set(3)
    hist = registry.histogram("rt_seconds")
    for value in (1e-4, 1e-3, 1e-2):
        hist.observe(value)
    text = registry.render()
    assert "# TYPE rt_total counter" in text
    assert "# HELP rt_total a counter" in text
    assert "# TYPE rt_seconds histogram" in text
    parsed = parse_prometheus(text)
    assert parsed[("rt_total", "")] == 7.0
    assert parsed[("rt_depth", "")] == 3.0
    assert parsed[("rt_seconds_count", "")] == 3.0
    assert parsed[("rt_seconds_sum", "")] == pytest.approx(0.0111)
    # Bucket series are cumulative and end at +Inf == count.
    inf = [v for (name, labels), v in parsed.items()
           if name == "rt_seconds_bucket" and "+Inf" in labels]
    assert inf == [3.0]


def test_rendered_values_parse_back_exactly(registry):
    """Six significant digits would print 1234567 as 1.23457e+06 (and
    keep printing it after three more increments) and a histogram sum
    of 0.123456789 as 0.123457."""
    counter = registry.counter("big_total")
    counter.inc(1_234_567)
    hist = registry.histogram("exact_seconds")
    hist.observe(0.123456789)
    parsed = parse_prometheus(registry.render())
    assert parsed[("big_total", "")] == 1_234_567.0
    assert parsed[("exact_seconds_sum", "")] == 0.123456789
    counter.inc(3)
    assert parse_prometheus(registry.render())[("big_total", "")] \
        == 1_234_570.0


def test_parse_prometheus_rejects_garbage():
    with pytest.raises(ValueError, match="unparseable"):
        parse_prometheus("this is { not an exposition\n")


def test_registry_disable_drops_writes(registry):
    c = registry.counter("killed_total")
    hist = registry.histogram("killed_seconds")
    registry.disable()
    c.inc()
    hist.observe(1.0)
    registry.enable()
    c.inc()
    assert c.value == 1.0
    assert hist.count == 0


def test_unregistered_instrument_always_writes():
    """A bare Histogram (no registry) ignores the kill switch — the
    per-worker swap histogram must record even during an obs A/B."""
    hist = Histogram("bare_seconds")
    hist.observe(2.0)
    assert hist.count == 1


def test_registry_collect_families(registry):
    registry.histogram("snap_seconds").observe(1e-3)
    registry.counter("snap_total", labels={"k": "w"}).inc(3)
    registry.counter("snap_total", "a counter", labels={"k": "v"}).inc(2)
    families = registry.collect()
    assert list(families) == ["snap_seconds", "snap_total"]   # sorted
    kind, help_text, series = families["snap_total"]
    assert (kind, help_text) == ("counter", "a counter")
    assert series == {(("k", "v"),): 2.0, (("k", "w"),): 3.0}
    assert list(series) == [(("k", "v"),), (("k", "w"),)]
    kind, _, series = families["snap_seconds"]
    assert kind == "histogram"
    assert series[()].total == 1 and series[()].sum == 1e-3
    assert render(families) == registry.render()


# -- cross-process merge semantics --------------------------------------------


def _worker_families(counter_value, gauge_value, observations):
    registry = MetricsRegistry()
    registry.counter("m_requests_total",
                     labels={"path": "/x"}).inc(counter_value)
    registry.gauge("m_staleness_seconds").set(gauge_value)
    hist = registry.histogram("m_seconds")
    for value in observations:
        hist.observe(value)
    return registry.collect()


def test_merge_counters_sum_but_gauges_take_max():
    """Pin the merge semantics: summing a level (staleness, streaks,
    queue depth) across processes is meaningless — the fleet's health
    is its worst member, so gauges aggregate by max."""
    first = _worker_families(3, 10.0, [1e-3])
    second = _worker_families(4, 250.0, [1e-3, 1e-2])
    merged = merge([first, second])
    assert merged["m_requests_total"][2][(("path", "/x"),)] == 7.0
    assert merged["m_staleness_seconds"][2][()] == 250.0   # max, not 260
    hist = merged["m_seconds"][2][()]                      # histograms sum
    assert hist.total == 3
    assert hist.sum == pytest.approx(1e-3 + 1e-3 + 1e-2)
    assert hist.counts == [a + b for a, b in zip(
        first["m_seconds"][2][()].counts, second["m_seconds"][2][()].counts)]
    # The sources are left as they were.
    assert first["m_requests_total"][2][(("path", "/x"),)] == 3.0


def test_merge_gauge_nan_loses_to_any_real_reading():
    """A forked worker reports parent pull-gauges as NaN/0; the merge
    must prefer the authoritative real reading in either order."""
    nan = {"g_depth": ("gauge", "", {(): float("nan")})}
    real = {"g_depth": ("gauge", "", {(): 7.0})}
    for order in ([nan, real], [real, nan]):
        assert merge(order)["g_depth"][2][()] == 7.0


# -- label escaping round trips ------------------------------------------------


@pytest.mark.parametrize("value", [
    'quote " inside',
    "back\\slash",
    "new\nline",
    'all \\ of " them\n at once',
    "",
])
def test_escaped_label_values_round_trip(registry, value):
    registry.counter("esc_total", labels={"v": value}).inc(5)
    parsed = parse_prometheus(registry.render())
    ((labels,),) = [[labels] for (name, labels) in parsed
                    if name == "esc_total"]
    assert parse_label_string(labels) == {"v": value}
    assert parsed[("esc_total", labels)] == 5.0


def test_empty_label_instruments_round_trip(registry):
    registry.counter("plain_total").inc(2)
    parsed = parse_prometheus(registry.render())
    assert parsed[("plain_total", "")] == 2.0
    assert parse_label_string("") == {}
    assert parse_label_string("{}") == {}


def test_parse_label_string_decodes_multiple_pairs():
    decoded = parse_label_string(
        r'{path="a\"b\\c\nd",scenario="kwai_food:sasrec"}')
    assert decoded == {"path": 'a"b\\c\nd',
                       "scenario": "kwai_food:sasrec"}


@pytest.mark.parametrize("bad", ["{unclosed", '{k=unquoted}', '{k="open}'])
def test_parse_label_string_rejects_malformed(bad):
    with pytest.raises(ValueError, match="malformed"):
        parse_label_string(bad)
