"""Core model, system loop, metrics, and the experiment path."""

import dataclasses
import importlib.util
from pathlib import Path

import pytest

from repro.controller.address import MemoryLocation
from repro.controller.request import MemoryRequest
from repro.core import Shadow, ShadowConfig
from repro.dram.device import DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.dram.timing import DDR5_4800
from repro.mitigations import DoubleRefreshRate
from repro.experiments.driver import run_spec
from repro.experiments.engine import (
    BASELINE, Engine, alone_job, shared_job,
)
from repro.sim import (
    System,
    SystemConfig,
    normalized_performance,
    throughput,
    weighted_speedup,
)
from repro.sim.core_model import ThreadState
from repro.sim.metrics import relative_weighted_speedup
from repro.spec import (
    ExperimentSpec, PointSpec, SimSpec, scheme_spec, workload_spec,
)
from repro.workloads import SPEC_PROFILES, trace as trace_module
from repro.workloads.hammer import hammer_profile
from repro.workloads.trace import TraceGenerator, trace_key

SMALL_GEO = DramGeometry(
    channels=2, ranks_per_channel=1, banks_per_rank=4,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=128),
    columns_per_row=64,
)


def small_config(**kw):
    kw.setdefault("geometry", SMALL_GEO)
    kw.setdefault("requests_per_thread", 200)
    kw.setdefault("seed", 7)
    return SystemConfig(**kw)


def _load_generator():
    spec = importlib.util.spec_from_file_location(
        "golden_generate_system",
        Path(__file__).resolve().parent / "golden" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _load_generator()


def fake_ops(n, gap=13, write_every=None):
    """``n`` thread ops, ``gap`` cycles apart, over four banks."""
    return [(gap, MemoryLocation(0, 0, i % 4, (i * 3) % 128, 0),
             write_every is not None and i % write_every == 0)
            for i in range(n)]


class TestThreadState:
    def test_issue_respects_gap(self):
        t = ThreadState(0, fake_ops(10), request_budget=5)
        assert not t.can_issue(0)
        ready = t.next_ready
        assert ready == 13
        assert t.can_issue(ready)
        req = t.issue(ready)
        assert req.arrival == ready
        assert t.outstanding == 1

    def test_mlp_limit_blocks_loads(self):
        t = ThreadState(0, fake_ops(100), request_budget=50, mlp=2)
        cycle = 0
        issued = []
        while t.can_issue(max(cycle, t.next_ready)) and len(issued) < 10:
            cycle = max(cycle, t.next_ready)
            issued.append(t.issue(cycle))
        assert len(issued) == 2          # window fills at two loads
        assert t.stalled_on_mlp(t.next_ready)
        t.on_completion(issued[0], cycle + 100)
        assert t.can_issue(max(cycle + 100, t.next_ready))

    def test_writes_do_not_occupy_window(self):
        t = ThreadState(0, fake_ops(100, write_every=1),
                        request_budget=20, mlp=1)
        cycle = 0
        for _ in range(5):
            cycle = max(cycle, t.next_ready)
            assert t.can_issue(cycle)
            t.issue(cycle)
        assert t.outstanding == 0

    def test_finish_detection(self):
        t = ThreadState(0, fake_ops(10), request_budget=1)
        req = t.issue(t.next_ready)
        assert t.drained and not t.finished
        t.on_completion(req, 500)
        assert t.finished
        assert t.finish_cycle == 500

    def test_completion_without_outstanding_rejected(self):
        t = ThreadState(0, fake_ops(10), request_budget=2)
        fake = MemoryRequest(MemoryLocation(0, 0, 0, 0, 0), False, 0, 0)
        with pytest.raises(RuntimeError):
            t.on_completion(fake, 10)

    def test_validation(self):
        with pytest.raises(ValueError):
            ThreadState(0, fake_ops(1), request_budget=0)
        with pytest.raises(ValueError):
            ThreadState(0, fake_ops(1), request_budget=1, mlp=0)
        with pytest.raises(ValueError, match="full request budget"):
            ThreadState(0, fake_ops(3), request_budget=4)


class TestSystemConfig:
    def test_defaults_valid(self):
        config = SystemConfig()
        assert config.mlp > 0 and config.cpu_ghz > 0

    @pytest.mark.parametrize("field,value", [
        ("requests_per_thread", 0),
        ("requests_per_thread", -5),
        ("mlp", 0),
        ("mlp", -1),
        ("cpu_ghz", 0.0),
        ("cpu_ghz", -2.5),
        ("max_cycles", 0),
        ("max_cycles", -100),
    ])
    def test_non_positive_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SystemConfig(**{field: value})


class TestSystem:
    def test_all_requests_complete(self):
        system = System([SPEC_PROFILES["gcc"]], config=small_config())
        result = system.run()
        assert result.requests_issued == 200
        assert result.reads_completed > 0
        assert result.cycles > 0
        assert len(result.thread_finish_cycles) == 1

    def test_deterministic(self):
        r1 = System([SPEC_PROFILES["gcc"]], config=small_config()).run()
        r2 = System([SPEC_PROFILES["gcc"]], config=small_config()).run()
        assert r1.cycles == r2.cycles
        assert r1.stats.acts == r2.stats.acts

    def test_more_threads_more_cycles(self):
        one = System([SPEC_PROFILES["lbm"]], config=small_config()).run()
        four = System([SPEC_PROFILES["lbm"]] * 4,
                      config=small_config()).run()
        assert four.cycles > one.cycles
        assert four.requests_issued == 4 * one.requests_issued

    def test_shadow_runs_end_to_end(self):
        shadow = Shadow(ShadowConfig(raaimt=16, rng_kind="system"))
        geometry = DramGeometry(
            channels=1, ranks_per_channel=1, banks_per_rank=2,
            layout=SubarrayLayout(subarrays_per_bank=4,
                                  rows_per_subarray=128),
            columns_per_row=64)
        cfg = SystemConfig(geometry=geometry, requests_per_thread=400,
                           seed=7)
        result = System([SPEC_PROFILES["mcf"]], shadow, config=cfg).run()
        assert result.rfms > 0
        shadow.check_invariants()

    def test_drr_issues_more_refreshes(self):
        cfg = small_config(requests_per_thread=600)
        base = System([SPEC_PROFILES["leela"]], config=cfg).run()
        drr = System([SPEC_PROFILES["leela"]], DoubleRefreshRate(),
                     config=cfg).run()
        # leela is slow enough that both runs span several tREFI.
        assert drr.refreshes > base.refreshes

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            System([], config=small_config())

    def test_finish_ns_converts_cycles_to_nanoseconds(self):
        # Regression: finish_ns used to return raw cycles.
        config = small_config()
        result = System([SPEC_PROFILES["gcc"]], config=config).run()
        tck = config.timing.tck_ns
        assert result.tck_ns == tck
        assert tck != 1.0        # conversion must actually change values
        assert result.finish_ns == \
            [c * tck for c in result.thread_finish_cycles]
        assert result.finish_ns[0] != result.thread_finish_cycles[0]


class TestTraceSlot:
    """Consecutive runs of one trace share its materialized ops."""

    PROFILES = [SPEC_PROFILES["mcf"], SPEC_PROFILES["gcc"]]

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(trace_module, "_last_traces", (None, ()))

    def _ops(self, system):
        return [thread._ops for thread in system.threads]

    def test_equal_keys_share_the_ops(self):
        config = small_config()
        first = System(self.PROFILES, config=config)
        second = System(list(self.PROFILES), DoubleRefreshRate(),
                        config=small_config())
        for a, b in zip(self._ops(first), self._ops(second)):
            assert a is b
            assert isinstance(a, tuple)
        for i, (profile, ops) in enumerate(
                zip(self.PROFILES, self._ops(first))):
            fresh = TraceGenerator(profile, config.geometry, i,
                                   seed=config.seed,
                                   cpu_ghz=config.cpu_ghz).materialize(
                config.requests_per_thread, config.timing.tck_ns)
            assert list(ops) == fresh

    @pytest.mark.parametrize("profiles, change", [
        (PROFILES, {"seed": 8}),
        ([SPEC_PROFILES["mcf"], SPEC_PROFILES["lbm"]], {}),
        (PROFILES, {"requests_per_thread": 201}),
        (PROFILES, {"timing": DDR5_4800}),
        (PROFILES, {"geometry": dataclasses.replace(SMALL_GEO,
                                                    channels=4)}),
    ], ids=["seed", "profile", "requests", "tck_ns", "geometry"])
    def test_any_key_field_misses(self, profiles, change):
        base = System(self.PROFILES, config=small_config())
        other = System(profiles, config=small_config(**change))
        assert trace_key(profiles, other.config) \
            != trace_key(self.PROFILES, base.config)
        for a, b in zip(self._ops(other), self._ops(base)):
            assert a is not b
        assert self._ops(other)[1] != self._ops(base)[1]

    def test_hammer_profile_goes_through_the_slot(self):
        profiles = [hammer_profile("double-sided")]
        config = small_config(mlp=1)
        first = System(profiles, config=config)
        assert trace_module._last_traces[0] == trace_key(profiles, config)
        second = System(profiles, config=small_config(mlp=1))
        assert self._ops(second)[0] is self._ops(first)[0]

    def test_slot_hit_runs_like_a_fresh_trace(self, monkeypatch):
        def run():
            shadow = Shadow(ShadowConfig(raaimt=16, rng_kind="system"))
            return GEN.run_captured(
                System(self.PROFILES, shadow, config=small_config()))

        fresh = run()
        hit = run()
        monkeypatch.setattr(trace_module, "_last_traces", (None, ()))
        cleared = run()
        assert hit == fresh == cleared

    def test_slot_holds_one_run(self):
        configs = [small_config(seed=seed) for seed in (7, 8, 7)]
        for config in configs:
            system = System(self.PROFILES, config=config)
            key, traces = trace_module._last_traces
            assert key == trace_key(self.PROFILES, config)
            assert traces == tuple(self._ops(system))

    def test_miss_empties_the_slot_before_building(self):
        System(self.PROFILES, config=small_config())
        with pytest.raises(ValueError, match="outside the bank"):
            System([hammer_profile(victim_row=10_000)],
                   config=small_config())
        assert trace_module._last_traces == (None, ())


class TestMetrics:
    def test_throughput(self):
        assert throughput(100, 50) == 2.0
        with pytest.raises(ValueError):
            throughput(1, 0)

    def test_normalized_performance(self):
        assert normalized_performance(100, 50) == 2.0   # 2x faster
        assert normalized_performance(50, 100) == 0.5

    def test_weighted_speedup(self):
        # Two threads, one at full speed, one at half speed.
        assert weighted_speedup([100, 100], [100, 200]) == pytest.approx(1.5)
        with pytest.raises(ValueError):
            weighted_speedup([100], [100, 200])
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_relative_weighted_speedup(self):
        rel = relative_weighted_speedup([100, 100], [110, 110], [100, 100])
        assert rel == pytest.approx(100 / 110)


class TestRunner:
    """Sanity checks on the experiment path (``run_spec`` / ``Engine``)."""

    def _point(self, metric, workload, scheme):
        point = PointSpec(metric, ("value",), workload=workload,
                          scheme=scheme, sim=SimSpec(requests=120, seed=7))
        return run_spec(ExperimentSpec("sanity", "smoke", [point]),
                        engine=Engine(use_cache=False))["value"]

    def test_run_result_weighted_speedup(self):
        config = small_config()
        profiles = [SPEC_PROFILES["xz"], SPEC_PROFILES["gcc"]]
        alone = [alone_job(p, BASELINE, config) for p in profiles]
        shared = shared_job(profiles, BASELINE, config)
        results = Engine(use_cache=False).run(alone + [shared])
        ws = weighted_speedup(
            [results[j].thread_finish_cycles[0] for j in alone],
            results[shared].thread_finish_cycles)
        # Shared execution is never faster than running alone.
        assert 0.5 < ws <= 2.0 + 1e-9

    def test_relative_performance_close_to_one_for_noop(self):
        rel = self._point("ws-relative", workload_spec("spec", app="xz"),
                          scheme_spec("none"))
        assert rel == 1.0

    def test_single_thread_relative(self):
        rel = self._point("st-relative", workload_spec("spec", app="gcc"),
                          scheme_spec("shadow-raw", raaimt=32))
        # SHADOW costs a little but never approaches DRR-level overhead.
        assert 0.9 < rel <= 1.001
