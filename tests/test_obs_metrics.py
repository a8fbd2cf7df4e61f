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



# -- the controller's request-latency histogram ----------------------------------

def _golden_generator():
    import importlib.util
    from pathlib import Path
    path = Path(__file__).resolve().parent / "golden" / "generate.py"
    spec = importlib.util.spec_from_file_location("golden_generate_lat", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _golden_system(scheme, obs):
    return _golden_generator().build_system(scheme, obs=obs)[0]


def _sparse_system(obs):
    """Near-idle traffic (the sparse-refresh benchmark's profile): most
    requests reach an idle bank, which today serves them before their
    arrival (ROADMAP item 3), so most latencies are negative."""
    from repro.mitigations.none import NoMitigation
    from repro.sim.system import System, SystemConfig
    from repro.workloads.trace import WorkloadProfile
    profile = WorkloadProfile(name="sparse-refresh", mpki=0.02,
                              row_buffer_locality=0.3, write_fraction=0.25,
                              footprint_pages=1024)
    return System([profile, profile], NoMitigation(),
                  config=SystemConfig(requests_per_thread=300, seed=3),
                  obs=obs)


class TestRequestLatencyHistogram:
    """``request.latency_cycles`` holds every request's ``completed -
    arrival`` filed by the one bucket rule: the controller's inlined
    update must agree with :meth:`Histogram.observe`, negative
    latencies included."""

    @pytest.mark.parametrize("build", [
        lambda obs: _golden_system("none", obs),
        lambda obs: _golden_system("shadow", obs),
        _sparse_system,
    ], ids=["golden-none", "golden-shadow", "sparse"])
    def test_summary_equals_observe_of_every_request(self, build):
        from repro.obs import Observability
        obs = Observability(metrics=True)
        system = build(obs)
        requests = []
        enqueue = system.mc.enqueue

        def recording(request):
            requests.append(request)
            enqueue(request)

        system.mc.enqueue = recording
        system.run()
        expected = Histogram("request.latency_cycles")
        for request in requests:
            expected.observe(request.completed - request.arrival)
        got = obs.summary["metrics"]["request.latency_cycles"]
        want = expected.snapshot()
        assert got["count"] == want["count"] == len(requests) > 0
        for key in ("sum", "max", "buckets"):
            assert got[key] == want[key], key
        if build is _sparse_system:
            # The case that pins how negative latencies are filed.
            assert min(r.completed - r.arrival for r in requests) < 0
