"""The bench harness: determinism, report I/O, regression gating."""

from pathlib import Path

import pytest

from repro.bench import (
    BENCH_PROFILES,
    check_overhead,
    check_regression,
    load_report,
    run_bench,
    run_overhead,
    write_report,
)
from repro.bench.harness import SCHEMA, run_one


class TestProfiles:
    def test_expected_profile_set(self):
        assert set(BENCH_PROFILES) == {
            "hit-heavy", "conflict-heavy", "shadow-rfm",
            "refresh-dominated", "idle-heavy", "tracker-heavy",
            "faults-on"}

    def test_tracker_heavy_drives_a_composed_scheme(self):
        # The adversarial tracker profile must exercise a composed
        # tracker x policy scheme on miss-heavy traffic, so the
        # gate covers tracker-bound scheduling.
        from repro.mitigations import ComposedMitigation
        profile = BENCH_PROFILES["tracker-heavy"]
        assert isinstance(profile.scheme.build(), ComposedMitigation)
        assert profile.workload.row_buffer_locality < 0.2

    def test_idle_heavy_is_sparse(self):
        # The point of the profile: many threads, low per-thread
        # intensity, refresh enabled -- most simulated time is idle.
        profile = BENCH_PROFILES["idle-heavy"]
        assert profile.threads >= 8
        assert profile.enable_refresh
        assert profile.workload.mpki < 1.0

    def test_quick_build_is_smaller(self):
        profile = BENCH_PROFILES["hit-heavy"]
        quick = profile.build(quick=True)
        full = profile.build(quick=False)
        assert quick.config.requests_per_thread < \
            full.config.requests_per_thread

    def test_quick_run_is_deterministic(self):
        entry_a = run_one(BENCH_PROFILES["refresh-dominated"], quick=True)
        entry_b = run_one(BENCH_PROFILES["refresh-dominated"], quick=True)
        for key in ("cycles", "requests", "acts", "row_hits",
                    "refreshes", "rfms"):
            assert entry_a[key] == entry_b[key]
        assert entry_a["cycles"] > 0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown bench profiles"):
            run_bench(names=["no-such-profile"], log=None)


class TestReportIO:
    def test_write_merges_variants(self, tmp_path):
        path = tmp_path / "bench.json"
        quick = run_bench(names=["refresh-dominated"], quick=True,
                          log=None)
        write_report(path, "quick", quick)
        write_report(path, "full", quick, extra={"pre_pr": {"x": 1}})
        report = load_report(path)
        assert report["schema"] == SCHEMA
        assert set(report["variants"]) == {"quick", "full"}
        assert report["pre_pr"] == {"x": 1}
        assert "refresh-dominated" in report["variants"]["quick"]

    def test_rewrite_preserves_other_variants(self, tmp_path):
        path = tmp_path / "bench.json"
        results = {"p": {"cycles_per_s": 100.0}}
        write_report(path, "quick", results)
        write_report(path, "full", {"p": {"cycles_per_s": 200.0}})
        report = load_report(path)
        assert report["variants"]["quick"]["p"]["cycles_per_s"] == 100.0


class TestRegressionGate:
    BASE = {"variants": {"quick": {
        "p": {"cycles_per_s": 1000.0},
        "q": {"cycles_per_s": 500.0},
    }}}

    def test_pass_within_threshold(self):
        results = {"p": {"cycles_per_s": 800.0},
                   "q": {"cycles_per_s": 495.0}}
        assert check_regression(results, self.BASE, "quick", 0.30) == []

    def test_fail_below_threshold(self):
        results = {"p": {"cycles_per_s": 600.0}}
        failures = check_regression(results, self.BASE, "quick", 0.30)
        assert len(failures) == 1
        assert "p:" in failures[0]

    def test_new_profile_allowed(self):
        results = {"brand-new": {"cycles_per_s": 1.0}}
        assert check_regression(results, self.BASE, "quick", 0.30) == []

    def test_missing_variant_is_not_a_failure(self):
        results = {"p": {"cycles_per_s": 1.0}}
        assert check_regression(results, self.BASE, "full", 0.30) == []

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            check_regression({}, self.BASE, "quick", 1.5)


class TestOverheadMode:
    def test_run_one_with_obs_same_outcome(self):
        from repro.obs import Observability
        profile = BENCH_PROFILES["refresh-dominated"]
        off = run_one(profile, quick=True)
        on = run_one(profile, quick=True,
                     obs_factory=lambda: Observability.in_memory(
                         sample_interval=10_000))
        for key in ("cycles", "requests", "acts", "row_hits",
                    "refreshes", "rfms"):
            assert off[key] == on[key]

    def test_run_overhead_shape_and_traces(self, tmp_path):
        results = run_overhead(names=["refresh-dominated"], quick=True,
                               trace_dir=tmp_path, log=None)
        entry = results["refresh-dominated"]
        assert set(entry) == {"off", "on", "overhead"}
        assert entry["off"]["cycles"] == entry["on"]["cycles"]
        assert (tmp_path / "refresh-dominated.trace.json").exists()

    def test_check_overhead_gate(self):
        results = {"a": {"overhead": 0.05}, "b": {"overhead": 0.40}}
        failures = check_overhead(results, 0.15)
        assert len(failures) == 1 and "b:" in failures[0]
        assert check_overhead(results, 0.50) == []
        with pytest.raises(ValueError):
            check_overhead(results, 0.0)


class TestCommittedReport:
    def test_bench_pr2_report_shape(self):
        # PR2 predates the idle-heavy and tracker-heavy profiles; its
        # report pins the original four.
        report = load_report(
            Path(__file__).resolve().parents[1] / "BENCH_PR2.json")
        assert report["schema"] == SCHEMA
        for variant in ("quick", "full"):
            profiles = report["variants"][variant]
            assert set(profiles) == \
                set(BENCH_PROFILES) - {"idle-heavy", "tracker-heavy",
                                       "faults-on"}
            for entry in profiles.values():
                assert entry["cycles_per_s"] > 0
        speedup = report["speedup_full_vs_pre_pr"]
        assert speedup["geomean"] >= 2.0

    def test_bench_pr7_report_shape(self):
        report = load_report(
            Path(__file__).resolve().parents[1] / "BENCH_PR7.json")
        assert report["schema"] == SCHEMA
        for variant in ("quick", "full"):
            profiles = report["variants"][variant]
            assert set(profiles) == \
                set(BENCH_PROFILES) - {"tracker-heavy", "faults-on"}
            for entry in profiles.values():
                assert entry["cycles_per_s"] > 0
        # pre_pr holds the PR2-era loop's numbers for the profiles that
        # existed then; idle-heavy is new in this report.
        pre = report["pre_pr"]["full"]
        assert set(pre) == \
            set(BENCH_PROFILES) - {"idle-heavy", "tracker-heavy",
                                   "faults-on"}
        speedup = report["speedup_full_vs_pre_pr"]
        # The headline acceptance number of the event-horizon rewrite.
        assert speedup["refresh-dominated"] >= 2.0

    def test_bench_pr9_report_shape(self):
        # PR9 is the current CI gate baseline: every profile that
        # existed then, in both variants (faults-on arrived later;
        # check_regression skips profiles missing from the baseline).
        report = load_report(
            Path(__file__).resolve().parents[1] / "BENCH_PR9.json")
        assert report["schema"] == SCHEMA
        for variant in ("quick", "full"):
            profiles = report["variants"][variant]
            assert set(profiles) == set(BENCH_PROFILES) - {"faults-on"}
            for entry in profiles.values():
                assert entry["cycles_per_s"] > 0
