"""Unit tests for the metrics registry (counters, gauges, histograms)."""

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_increments():
    counter = Counter()
    counter.inc()
    counter.inc(4)
    assert counter.value == 5


def test_counter_rejects_negative():
    with pytest.raises(ValueError):
        Counter().inc(-1)


def test_gauge_set_and_inc():
    gauge = Gauge()
    gauge.set(2.5)
    gauge.inc(-1.0)
    assert gauge.value == 1.5


def test_histogram_needs_boundaries():
    with pytest.raises(ValueError):
        Histogram(())


def test_histogram_boundaries_must_increase():
    with pytest.raises(ValueError):
        Histogram((10, 5))
    with pytest.raises(ValueError):
        Histogram((10, 10))


def test_histogram_bucketing():
    hist = Histogram((10, 100))
    for value in (5, 10, 50, 1000):
        hist.observe(value)
    assert hist.bucket_counts == [2, 1, 1]
    assert hist.count == 4
    assert hist.total == 1065
    assert hist.minimum == 5
    assert hist.maximum == 1000


def test_histogram_mean_and_empty_stats():
    hist = Histogram((10,))
    assert hist.mean == 0.0
    assert hist.minimum is None and hist.maximum is None
    assert hist.quantile(0.5) is None
    hist.observe(4)
    hist.observe(6)
    assert hist.mean == 5.0


def test_histogram_quantile_bucket_resolution():
    hist = Histogram((10, 100, 1000))
    for _ in range(99):
        hist.observe(5)
    hist.observe(50_000)  # lands in the overflow bucket
    assert hist.quantile(0.5) == 10
    assert hist.quantile(1.0) == 50_000  # exact max for the overflow bucket
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_histogram_quantile_exact_edges():
    hist = Histogram((10, 100))
    for value in (3, 7, 42):
        hist.observe(value)
    assert hist.quantile(0.0) == 3  # exact minimum, not a bucket edge
    assert hist.quantile(1.0) == 42  # exact maximum, not a bucket edge
    assert Histogram((10,)).quantile(0.0) is None
    assert Histogram((10,)).quantile(1.0) is None


def test_histogram_summary_digest():
    hist = Histogram((10, 100, 1000))
    for value in (5, 5, 50, 500):
        hist.observe(value)
    assert hist.summary() == {
        "count": 4,
        "mean": 140.0,
        "min": 5,
        "max": 500,
        "p50": 10,
        "p99": 1000,
    }


def test_histogram_summary_empty():
    summary = Histogram((10,)).summary()
    assert summary["count"] == 0
    assert summary["mean"] == 0.0
    assert summary["min"] is None and summary["max"] is None
    assert summary["p50"] is None and summary["p99"] is None


def test_registry_shares_by_name():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.counter("a").inc()
    assert registry.counter("a").value == 2


def test_registry_labels_create_distinct_metrics():
    registry = MetricsRegistry()
    registry.counter("fd.detect", node=1).inc()
    registry.counter("fd.detect", node=2).inc(5)
    assert registry.counter("fd.detect", node=1).value == 1
    assert registry.counter("fd.detect", node=2).value == 5
    assert "fd.detect{node=1}" in registry


def test_registry_label_order_is_canonical():
    registry = MetricsRegistry()
    registry.counter("x", b=2, a=1).inc()
    assert registry.counter("x", a=1, b=2).value == 1


def test_registry_kind_mismatch_raises():
    registry = MetricsRegistry()
    registry.counter("x")
    with pytest.raises(TypeError):
        registry.gauge("x")


def test_registry_histogram_default_buckets():
    registry = MetricsRegistry()
    hist = registry.histogram("latency")
    assert hist.boundaries == DEFAULT_LATENCY_BUCKETS


def test_snapshot_shapes():
    registry = MetricsRegistry()
    registry.counter("c").inc(2)
    registry.gauge("g").set(0.5)
    registry.histogram("h", boundaries=(10,)).observe(3)
    snap = registry.snapshot()
    assert snap["c"] == 2
    assert snap["g"] == 0.5
    assert snap["h"]["count"] == 1
    assert snap["h"]["buckets"] == {"10": 1, "+inf": 0}


def test_render_mentions_every_metric():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.gauge("g").set(1.0)
    registry.histogram("h", boundaries=(10,)).observe(3)
    text = registry.render()
    assert "c = 1" in text
    assert "g = 1" in text
    assert "h count=1" in text


def test_snapshot_and_render_order_independent_of_creation():
    """Two registries fed the same metrics in different orders produce
    identical snapshots and renderings (sorted by full key)."""
    first = MetricsRegistry()
    second = MetricsRegistry()
    for registry, order in ((first, 1), (second, -1)):
        names = ["z.counter", "a.counter", "m.gauge", "b.hist"][::order]
        for name in names:
            if name.endswith("counter"):
                registry.counter(name, node=3).inc(2)
            elif name.endswith("gauge"):
                registry.gauge(name).set(1.5)
            else:
                registry.histogram(name, boundaries=(10,)).observe(7)
    assert first.snapshot() == second.snapshot()
    assert list(first.snapshot()) == sorted(first.snapshot())
    assert first.render() == second.render()
    rendered_keys = [line.split(" ")[0] for line in first.render().splitlines()]
    assert rendered_keys == sorted(rendered_keys)


def test_iteration_is_sorted_and_clear_forgets():
    registry = MetricsRegistry()
    registry.counter("b")
    registry.counter("a")
    assert [key for key, _ in registry] == ["a", "b"]
    registry.clear()
    assert "a" not in registry


def test_each_bus_reports_its_own_utilization():
    """One gauge per bus: on two segments each is labelled with its
    segment and divides that bus's busy time by the instant of its own last
    completion; a single bus keeps the unlabelled key."""
    from repro.core.stack import CanelyNetwork
    from repro.sim.clock import ms

    net = CanelyNetwork(node_count=6, segments=2)
    net.scenario().bootstrap()
    net.run_for(ms(100))
    snapshot = net.sim.metrics.snapshot()
    assert "bus.utilization" not in snapshot
    for index, bus in enumerate(net.buses):
        gauge = snapshot[f"bus.utilization{{bus={index}}}"]
        assert gauge == pytest.approx(bus.utilization(), rel=0.01)
        last_completion = bus.stats.busy_bits * bus.timing.bit_time / gauge
        assert net.sim.now - net.config.thb < last_completion <= net.sim.now

    single = CanelyNetwork(node_count=3)
    single.join_all()
    single.run_for(ms(10))
    keys = [key for key in single.sim.metrics.snapshot() if "utilization" in key]
    assert keys == ["bus.utilization"]
