"""The bench profiles and the two overhead gates."""

import pytest

from repro.bench import (
    BENCH_PROFILES,
    check_overhead,
    run_fault_overhead,
    run_overhead,
)

#: Simulated cycles of each profile.  The overhead gates' thresholds
#: were set on exactly these runs, so a profile must not change size or
#: outcome without the gates being re-examined.
PINNED_CYCLES = {
    "hit-heavy": 9926,
    "conflict-heavy": 9137,
    "shadow-rfm": 7045,
    "refresh-dominated": 66679,
    "idle-heavy": 58043,
    "tracker-heavy": 9180,
    "faults-on": 6963,
}


def _outcome(result):
    return (result.cycles, result.requests_issued, result.stats.acts,
            result.stats.row_hits, result.refreshes, result.rfms)


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

    @pytest.mark.parametrize("name", sorted(PINNED_CYCLES))
    def test_cycles_pinned(self, name):
        assert BENCH_PROFILES[name].build().run().cycles == \
            PINNED_CYCLES[name]

    def test_run_is_deterministic(self):
        profile = BENCH_PROFILES["refresh-dominated"]
        assert _outcome(profile.build().run()) == \
            _outcome(profile.build().run())

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown bench profiles"):
            run_overhead(names=["no-such-profile"], log=None)
        with pytest.raises(ValueError, match="unknown bench profiles"):
            run_fault_overhead(names=["no-such-profile"], log=None)

    def test_fault_gate_rejects_profiles_with_baked_in_faults(self):
        with pytest.raises(ValueError, match="bake in fault injection"):
            run_fault_overhead(names=["faults-on"], log=None)


class TestOverheadMode:
    def test_obs_build_same_outcome(self):
        from repro.obs import Observability
        profile = BENCH_PROFILES["refresh-dominated"]
        obs = Observability.in_memory(sample_interval=10_000)
        on = profile.build(obs=obs).run()
        obs.close()
        assert _outcome(on) == _outcome(profile.build().run())

    def test_run_overhead_shape_and_traces(self, tmp_path):
        results = run_overhead(names=["refresh-dominated"],
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
