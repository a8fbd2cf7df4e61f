"""Unit tests for the metric primitives (`repro.obs.metrics`)."""

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
)


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6
        assert c.snapshot() == 6


class TestGauge:
    def test_set_overwrites(self):
        g = Gauge("depth")
        g.set(10)
        g.set(3)
        assert g.snapshot() == 3


class TestHistogram:
    def test_log_scale_buckets(self):
        h = Histogram("lat")
        for v in (0, 1, 2, 3, 4, 1000):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == 1010
        assert snap["max"] == 1000
        assert snap["mean"] == pytest.approx(1010 / 6)
        # 0 -> bucket 0; 1 -> [1,1]; 2,3 -> [2,3]; 4 -> [4,7];
        # 1000 -> [512,1023]
        assert snap["buckets"] == {
            "0..0": 1, "1..1": 1, "2..3": 2, "4..7": 1, "512..1023": 1}

    def test_bucket_bounds(self):
        assert Histogram.bucket_bounds(0) == (0, 0)
        assert Histogram.bucket_bounds(1) == (1, 1)
        assert Histogram.bucket_bounds(4) == (8, 15)


class TestMetricRegistry:
    def test_get_or_create_returns_same_handle(self):
        reg = MetricRegistry()
        a = reg.counter("reqs")
        b = reg.counter("reqs")
        assert a is b
        assert len(reg) == 1
        assert "reqs" in reg

    def test_type_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("m")
        with pytest.raises(TypeError):
            reg.gauge("m")

    def test_snapshot_is_sorted_and_jsonable(self):
        import json

        reg = MetricRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a").set(1.5)
        reg.histogram("c").observe(7)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        json.dumps(snap)  # must not raise

