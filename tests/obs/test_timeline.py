"""Timeline: bounded memory, delta-rates, windowed quantiles, export."""

from __future__ import annotations

import math
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.timeline import Timeline

T0 = 1_000_000.0


@pytest.fixture()
def registry():
    return MetricsRegistry()


def make_timeline(registry, window_s=60.0, interval_s=1.0):
    return Timeline(window_s=window_s, interval_s=interval_s,
                    source=registry.collect)


# -- collection ----------------------------------------------------------------


def test_sample_keys_series_by_name_and_label_key(registry):
    registry.counter("cf_total", labels={"path": "/x"}).inc(3)
    registry.gauge("cf_depth").set(7)
    registry.histogram("cf_seconds",
                       labels={"scenario": "a:b"}).observe(1e-3)
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    assert set(timeline._series) == {
        ("cf_total", (("path", "/x"),)), ("cf_depth", ()),
        ("cf_seconds", (("scenario", "a:b"),))}
    counter = timeline._series[("cf_total", (("path", "/x"),))]
    assert counter.kind == "counter" and list(counter.points) == [(T0, 3.0)]
    assert list(timeline._series[("cf_depth", ())].points) == [(T0, 7.0)]
    # A histogram is one series per label set, its points snapshots.
    hist = timeline._series[("cf_seconds", (("scenario", "a:b"),))]
    ((ts, snap),) = hist.points
    assert hist.kind == "histogram" and ts == T0
    assert snap.total == 1 and snap.sum == pytest.approx(1e-3)
    assert snap.bounds is hist.bounds


def test_ring_buffer_is_bounded_forever(registry):
    counter = registry.counter("rb_total")
    timeline = make_timeline(registry, window_s=5.0, interval_s=1.0)
    assert timeline.capacity == 6
    for tick in range(200):
        counter.inc()
        timeline.sample(now=T0 + tick)
    for series in timeline._series.values():
        assert len(series.points) <= timeline.capacity
    assert timeline.samples_taken == 200


# -- counter semantics ---------------------------------------------------------


def test_counter_increase_and_rate_are_windowed_deltas(registry):
    counter = registry.counter("cr_total")
    timeline = make_timeline(registry, window_s=60.0)
    for tick in range(5):
        counter.inc(10)
        timeline.sample(now=T0 + tick)
    # 5 samples at values 10..50: increase = 40 over a 4 s span.
    assert timeline.increase("cr_total", 60.0) == pytest.approx(40.0)
    assert timeline.rate("cr_total", 60.0) == pytest.approx(10.0)
    # A 2 s window keeps points at T0+2..T0+4 plus the T0+1 baseline,
    # so the delta crossing the window edge is attributed in-window.
    assert timeline.increase("cr_total", 2.0) == pytest.approx(30.0)


def test_counter_reset_clamps_to_zero_not_negative():
    values = iter([100.0, 150.0, 5.0, 25.0])

    def source():
        return {"reset_total": ("counter", "", {(): next(values)})}

    timeline = Timeline(window_s=60.0, interval_s=1.0, source=source)
    for tick in range(4):
        timeline.sample(now=T0 + tick)
    # +50, reset (clamped to 0), +20 — never negative.
    assert timeline.increase("reset_total", 60.0) == pytest.approx(70.0)


def test_histogram_reset_clamps_to_zero_not_negative():
    """A merged histogram shrinks when a worker restarts; the window
    reads that as no observations, never negative counts."""
    before, after = MetricsRegistry(), MetricsRegistry()
    for value in (1e-3, 1e-3, 1.0):
        before.histogram("hr_seconds").observe(value)
    after.histogram("hr_seconds").observe(1e-3)
    sources = iter([before.collect(), after.collect()])
    timeline = Timeline(window_s=60.0, interval_s=1.0,
                        source=lambda: next(sources))
    timeline.sample(now=T0)
    timeline.sample(now=T0 + 1)
    snap = timeline.histogram_window("hr_seconds", 60.0)
    assert snap.total == 0 and not any(snap.counts)
    assert timeline.quantile("hr_seconds", 0.5, 60.0) is None


def test_increase_returns_none_without_data(registry):
    timeline = make_timeline(registry)
    assert timeline.increase("nothing_total", 60.0) is None
    timeline.sample(now=T0)
    assert timeline.increase("nothing_total", 60.0) is None


def test_window_baseline_point_prepended(registry):
    counter = registry.counter("wb_total")
    timeline = make_timeline(registry, window_s=100.0)
    counter.inc(10)
    timeline.sample(now=T0)
    counter.inc(10)
    timeline.sample(now=T0 + 50)
    # A 10 s window at t0+50 holds one point, but the baseline outside
    # it makes the delta across the edge visible.
    assert timeline.increase("wb_total", 10.0) == pytest.approx(10.0)


# -- gauges / histograms -------------------------------------------------------


def test_gauge_latest_values_per_label_set(registry):
    registry.gauge("gl_depth", labels={"scope": "a"}).set(3)
    registry.gauge("gl_depth", labels={"scope": "b"}).set(9)
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    assert sorted(timeline.latest_values("gl_depth")) == [3.0, 9.0]


def test_histogram_windowed_quantile_ignores_old_observations(registry):
    hist = registry.histogram("hw_seconds")
    timeline = make_timeline(registry, window_s=300.0)
    timeline.sample(now=T0)               # baseline before any traffic
    for _ in range(100):
        hist.observe(1e-3)
    timeline.sample(now=T0 + 10)
    for _ in range(50):
        hist.observe(1.0)
    timeline.sample(now=T0 + 20)
    # Full window: both populations. Narrow window: only the slow one
    # (the fast batch is attributed to the T0+10 sample, which becomes
    # the out-of-window baseline for a 5 s window at T0+20).
    snap = timeline.histogram_window("hw_seconds", 300.0)
    assert snap.total == 150
    narrow = timeline.histogram_window("hw_seconds", 5.0)
    assert narrow.total == 50
    assert timeline.quantile("hw_seconds", 0.5, 5.0) == \
        pytest.approx(1.0, rel=0.5)
    assert timeline.quantile("hw_seconds", 0.5, 300.0) < 0.1


def test_quantile_none_without_observations(registry):
    registry.histogram("hq_seconds")
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    timeline.sample(now=T0 + 1)
    assert timeline.quantile("hq_seconds", 0.99, 60.0) is None


# -- export / lifecycle --------------------------------------------------------


def test_export_without_metric_lists_names(registry):
    registry.counter("ex_total").inc()
    registry.gauge("ex_depth").set(1)
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    payload = timeline.export()
    assert payload["monitoring"] is True
    assert "ex_total" in payload["metrics"]
    assert "ex_depth" in payload["metrics"]


def test_export_counter_points_are_rates(registry):
    counter = registry.counter("exc_total")
    timeline = make_timeline(registry)
    for tick in range(3):
        counter.inc(4)
        timeline.sample(now=T0 + 2 * tick)
    payload = timeline.export("exc_total")
    (series,) = payload["series"]
    assert series["kind"] == "counter"
    # 3 points → 2 rate pairs of 4 incs / 2 s.
    assert [p[1] for p in series["points"]] == pytest.approx([2.0, 2.0])


def test_export_histogram_points_carry_quantiles(registry):
    hist = registry.histogram("exh_seconds")
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    for _ in range(20):
        hist.observe(1e-2)
    timeline.sample(now=T0 + 2)
    payload = timeline.export("exh_seconds")
    (series,) = payload["series"]
    ((ts, rate, p50, p99),) = series["points"]
    assert ts == T0 + 2
    assert rate == pytest.approx(10.0)
    assert p50 == pytest.approx(1e-2, rel=0.5)
    assert p99 >= p50


def test_export_gauge_nan_becomes_null(registry):
    registry.gauge("exn_depth").set_function(lambda: 1 / 0)   # NaN reading
    timeline = make_timeline(registry)
    timeline.sample(now=T0)
    (series,) = timeline.export("exn_depth")["series"]
    assert series["points"] == [[T0, None]]
    assert math.isnan(timeline.latest_values("exn_depth")[0])


def test_bad_scrape_counts_error_and_survives():
    calls = [0]

    def source():
        calls[0] += 1
        if calls[0] == 2:
            raise RuntimeError("scrape broke")
        return {"ok_total": ("counter", "", {(): 1.0})}

    timeline = Timeline(window_s=10.0, interval_s=1.0, source=source)
    timeline.sample(now=T0)
    timeline.sample(now=T0 + 1)     # failing scrape: swallowed
    timeline.sample(now=T0 + 2)
    assert timeline.samples_taken == 2


def test_listener_called_after_each_sample(registry):
    seen = []
    timeline = make_timeline(registry)
    timeline.add_listener(seen.append)
    timeline.sample(now=T0)
    timeline.sample(now=T0 + 1)
    assert seen == [T0, T0 + 1]


def test_background_sampler_start_stop(registry):
    registry.counter("bg_total").inc()
    timeline = make_timeline(registry, window_s=10.0, interval_s=0.01)
    timeline.start()
    deadline = time.time() + 5.0
    while timeline.samples_taken < 3 and time.time() < deadline:
        time.sleep(0.01)
    timeline.stop()
    assert timeline.samples_taken >= 3
    taken = timeline.samples_taken
    time.sleep(0.05)
    assert timeline.samples_taken == taken      # sampler actually stopped


def test_constructor_validation(registry):
    with pytest.raises(ValueError):
        Timeline(window_s=10.0, interval_s=0.0, source=registry.collect)
    with pytest.raises(ValueError):
        Timeline(window_s=0.5, interval_s=1.0, source=registry.collect)
