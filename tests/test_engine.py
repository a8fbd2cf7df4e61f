"""The parallel experiment engine and its persistent result cache."""

import dataclasses
import functools
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import fig8
from repro.experiments.configs import FidelityConfig, fidelity_config
from repro.experiments.engine import (
    BASELINE,
    Engine,
    EngineStats,
    Job,
    JobFailedError,
    JobFailure,
    JobResult,
    SchemeSpec,
    _execute,
    alone_job,
    archsim_scheme_specs,
    rfm_scheme_specs,
    scheme_spec,
    shared_job,
)
from repro.dram.device import DramGeometry
from repro.dram.subarray import SubarrayLayout
from repro.experiments.driver import run_spec
from repro.mitigations import DoubleRefreshRate, NoMitigation
from repro.sim import System, SystemConfig
from repro.sim.metrics import relative_weighted_speedup
from repro.spec import (
    ExperimentSpec, PointSpec, SimSpec, workload_spec,
)
from repro.utils.cache import ResultCache, canonical_json, spec_digest
from repro.workloads import SPEC_PROFILES

SMALL_GEO = DramGeometry(
    channels=2, ranks_per_channel=1, banks_per_rank=4,
    layout=SubarrayLayout(subarrays_per_bank=4, rows_per_subarray=128),
    columns_per_row=64,
)

#: The smoke-fidelity fig8 grid shape with micro run-scale knobs, so the
#: determinism and cache tests cover the real driver end to end in
#: seconds.
MICRO = FidelityConfig(
    name="smoke", threads=2, mt_threads=2,
    requests_per_thread=60, single_thread_requests=40,
    apps_per_suite=1, mix_random_count=1,
    tracker_threads=2, tracker_requests=80,
)


def small_config(**kw):
    kw.setdefault("geometry", SMALL_GEO)
    kw.setdefault("requests_per_thread", 120)
    kw.setdefault("seed", 7)
    return SystemConfig(**kw)


@pytest.fixture
def micro_fig8(monkeypatch):
    monkeypatch.setattr(fig8, "fidelity_config", lambda name: MICRO)


# -- picklable fault-injection workers (must be module-level: they cross
# -- the process-pool boundary by reference) ---------------------------------------

_CANNED = dict(
    cycles=100, thread_finish_cycles=[100], reads_completed=1,
    requests_issued=1, refreshes=0, rfms=0, mitigation_name="canned",
    tck_ns=0.75, acts=1, precharges=1, reads=1, writes=0, row_hits=0,
    row_misses=1, row_conflicts=0, extra_act_cycles=0, metrics=None)


def _canned_worker(job):
    """Instant deterministic payload; no simulation."""
    payload = dict(_CANNED)
    payload["mitigation_name"] = job.scheme.kind
    return payload


def _fail_for(job, target):
    """Raises deterministically for jobs running the target profile."""
    if any(p.name == target for p in job.profiles):
        raise ValueError(f"injected failure for {target}")
    return _canned_worker(job)


def _exit_for(job, target):
    """Kills the worker for the target profile, as an OOM kill would."""
    if any(p.name == target for p in job.profiles):
        os._exit(3)
    return _canned_worker(job)


class TestResultCache:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        spec = {"a": 1, "b": [2, 3]}
        assert cache.get(spec) is None
        cache.put(spec, {"value": 42})
        assert cache.get(spec) == {"value": 42}

    def test_digest_is_key_order_independent(self):
        assert spec_digest({"a": 1, "b": 2}) == spec_digest({"b": 2, "a": 1})
        assert spec_digest({"a": 1}) != spec_digest({"a": 2})

    def test_schema_version_invalidates(self, tmp_path):
        old = ResultCache(str(tmp_path), schema_version=1)
        old.put({"x": 1}, {"value": 1})
        new = ResultCache(str(tmp_path), schema_version=2)
        assert new.get({"x": 1}) is None

    def test_corrupt_entry_reads_as_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        path = cache.put({"x": 1}, {"value": 1})
        path.write_text("not json{")
        assert cache.get({"x": 1}) is None

    def test_wipe(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"x": 1}, {"value": 1})
        cache.put({"x": 2}, {"value": 2})
        assert cache.wipe() == 2
        assert cache.get({"x": 1}) is None

    def test_canonical_json_stable(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == \
            '{"a":[1,2],"b":1}'


#: Puts or gets one fixed entry; run in a fresh interpreter per call so
#: each call digests the sources of the tree on its ``PYTHONPATH``.
_CACHE_PROBE = """
import sys
import repro
from repro.utils.cache import ResultCache
cache = ResultCache(sys.argv[1])
spec = {"scheme": "shadow", "hcnt": 4096}
if sys.argv[2] == "put":
    cache.put(spec, {"value": 1})
print(repro.__file__, "hit" if cache.get(spec) == {"value": 1} else "miss")
"""


class TestSourceKey:
    """The cache key covers the package's own sources: a rerun by the
    same code hits, and an entry written by other code is a miss."""

    def probe(self, tree, cache_dir, mode="get"):
        out = subprocess.run(
            [sys.executable, "-c", _CACHE_PROBE, str(cache_dir), mode],
            cwd=tree.parent, capture_output=True, text=True, check=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(tree),
                 "PYTHONDONTWRITEBYTECODE": "1"})
        origin, verdict = out.stdout.split()
        assert pathlib.Path(origin).is_relative_to(tree)
        return verdict

    def test_source_edit_turns_hit_into_miss(self, tmp_path):
        tree = tmp_path / "src"
        shutil.copytree(pathlib.Path(__file__).resolve().parents[1]
                        / "src" / "repro", tree / "repro",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cache_dir = tmp_path / "cache"
        assert self.probe(tree, cache_dir, "put") == "hit"
        assert self.probe(tree, cache_dir) == "hit"
        # One byte of a module the goldens never run, then of the
        # scheduler: each turns the entry into a miss; restoring the
        # bytes makes it a hit again (the key is content, not mtime).
        for module in ("analysis/security.py", "controller/mc.py"):
            path = tree / "repro" / module
            original = path.read_bytes()
            path.write_bytes(original + b"\n")
            assert self.probe(tree, cache_dir) == "miss", module
            path.write_bytes(original)
            assert self.probe(tree, cache_dir) == "hit", module


class TestSchemeSpec:
    def test_builds_every_registered_kind(self):
        for name, spec in {**rfm_scheme_specs(4096),
                           **archsim_scheme_specs(4096)}.items():
            instance = spec.build()
            assert instance.name, name
            # Fresh per-run state on every build.
            assert spec.build() is not instance

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            scheme_spec("not-a-scheme", hcnt=4096)

    def test_params_order_insensitive(self):
        a = scheme_spec("parfm", hcnt=4096, radius=2)
        b = SchemeSpec("parfm", (("radius", 2), ("hcnt", 4096)))
        assert a == SchemeSpec("parfm", tuple(sorted(b.params)))

    def test_payload_json_serialisable(self):
        payload = scheme_spec("shadow", hcnt=4096).payload()
        assert json.loads(canonical_json(payload)) == payload


class TestJobIdentity:
    def test_equal_specs_equal_jobs(self):
        p = SPEC_PROFILES["mcf"]
        a = alone_job(p, BASELINE, small_config())
        b = alone_job(p, BASELINE, small_config())
        assert a == b and hash(a) == hash(b)

    def test_seed_differentiates(self):
        p = SPEC_PROFILES["mcf"]
        a = alone_job(p, BASELINE, small_config(seed=1))
        b = alone_job(p, BASELINE, small_config(seed=2))
        assert a != b

    def test_scheme_differentiates(self):
        p = SPEC_PROFILES["mcf"]
        a = alone_job(p, scheme_spec("shadow", hcnt=4096), small_config())
        b = alone_job(p, scheme_spec("shadow", hcnt=2048), small_config())
        assert a != b

    def test_empty_profiles_rejected(self):
        with pytest.raises(ValueError):
            Job((), BASELINE, small_config())

    def test_spec_is_json_serialisable(self):
        job = shared_job([SPEC_PROFILES["mcf"]] * 2,
                         scheme_spec("drr"), small_config())
        assert json.loads(canonical_json(job.spec)) == \
            json.loads(canonical_json(job.spec))


class TestEngine:
    def _jobs(self, n=3):
        config = small_config()
        profiles = sorted(SPEC_PROFILES)[:n]
        return [alone_job(SPEC_PROFILES[p], BASELINE, config)
                for p in profiles]

    def test_dedup(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path))
        jobs = self._jobs(2)
        results = engine.run(jobs + jobs)
        assert engine.stats.submitted == 4
        assert engine.stats.unique == 2
        assert engine.stats.executed == 2
        assert set(results) == set(jobs)

    def test_second_run_hits_cache_with_identical_values(self, tmp_path):
        jobs = self._jobs(3)
        first = Engine(cache_dir=str(tmp_path))
        r1 = first.run(jobs)
        assert first.stats.executed == 3
        assert first.stats.cache_hits == 0
        second = Engine(cache_dir=str(tmp_path))
        r2 = second.run(jobs)
        assert second.stats.executed == 0          # zero simulations
        assert second.stats.cache_hits == 3
        for job in jobs:
            assert r1[job].to_dict() == r2[job].to_dict()

    def test_no_cache_mode(self, tmp_path):
        engine = Engine(cache_dir=str(tmp_path), use_cache=False)
        engine.run(self._jobs(1))
        assert not list(tmp_path.glob("*.json"))

    def test_parallel_matches_serial(self, tmp_path):
        jobs = self._jobs(3)
        serial = Engine(jobs=1, cache_dir=str(tmp_path / "a")).run(jobs)
        parallel = Engine(jobs=2, cache_dir=str(tmp_path / "b")).run(jobs)
        for job in jobs:
            assert serial[job].to_dict() == parallel[job].to_dict()

    def test_result_fields_roundtrip(self, tmp_path):
        job = self._jobs(1)[0]
        result = Engine(cache_dir=str(tmp_path)).run([job])[job]
        assert result.requests_issued == 120
        assert result.acts > 0
        assert result.tck_ns == job.config.timing.tck_ns
        assert result.finish_ns[0] == pytest.approx(
            result.thread_finish_cycles[0] * job.config.timing.tck_ns)
        assert JobResult.from_dict(result.to_dict()) == result

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            Engine(jobs=0)

    def test_results_carry_metrics_summary(self, tmp_path):
        job = self._jobs(1)[0]
        result = Engine(cache_dir=str(tmp_path)).run([job])[job]
        assert result.metrics is not None
        assert result.metrics["acts"] == result.acts
        assert result.metrics["row_hits"] == result.row_hits
        cache = result.metrics["candidate_cache"]
        assert cache["evals"] == cache["hits"] + cache["recomputes"]
        json.dumps(result.metrics)  # cached payload must be JSON-able

    def test_pre_metrics_cache_payload_still_loads(self):
        # Entries written before JobResult grew the metrics field have
        # no "metrics" key; they must deserialise with metrics=None.
        payload = dataclasses.asdict(JobResult(
            cycles=10, thread_finish_cycles=[10], reads_completed=1,
            requests_issued=1, refreshes=0, rfms=0,
            mitigation_name="baseline", tck_ns=0.75, acts=1,
            precharges=1, reads=1, writes=0, row_hits=0, row_misses=1,
            row_conflicts=0, extra_act_cycles=0))
        del payload["metrics"]
        restored = JobResult.from_dict(payload)
        assert restored.metrics is None
        assert restored.cycles == 10


class TestTraceOrder:
    """Jobs of one trace key run back to back, so they hit the trace
    slot of the worker that runs them."""

    def _jobs(self):
        mcf, gcc = SPEC_PROFILES["mcf"], SPEC_PROFILES["gcc"]
        drr = scheme_spec("drr")
        shadow = scheme_spec("shadow", hcnt=1024)
        config = small_config()
        # Input order interleaves three trace keys: (mcf), (gcc) and
        # (mcf) at another seed.
        return [
            alone_job(mcf, BASELINE, config),
            alone_job(gcc, BASELINE, config),
            alone_job(mcf, BASELINE, small_config(seed=8)),
            alone_job(mcf, drr, config),
            alone_job(gcc, shadow, config),
            alone_job(mcf, shadow, config),
            alone_job(mcf, drr, small_config(seed=8)),
        ]

    def test_inline_runs_each_key_back_to_back(self):
        ran = []

        def recording_worker(job):
            ran.append(job)
            return _canned_worker(job)

        jobs = self._jobs()
        Engine(use_cache=False, worker=recording_worker).run(jobs)
        assert ran == [jobs[i] for i in (0, 3, 5, 1, 4, 2, 6)]

    def test_pool_matches_inline(self):
        jobs = self._jobs()
        inline = Engine(jobs=1, use_cache=False).run(jobs)
        pooled = Engine(jobs=2, use_cache=False).run(jobs)
        assert set(pooled) == set(jobs)
        for job in jobs:
            assert pooled[job].to_dict() == inline[job].to_dict()


class TestWsRelativeMetric:
    """The ``ws-relative`` driver metric, the one WS(scheme)/WS(baseline)
    implementation behind Figures 8-11 and the extended comparison."""

    SIM = SimSpec(requests=120, seed=7)
    WORKLOAD = workload_spec("mix-high", threads=2)

    def _spec(self, *schemes):
        return ExperimentSpec("ws", "smoke", [
            PointSpec("ws-relative", (scheme.kind,), workload=self.WORKLOAD,
                      scheme=scheme, sim=self.SIM)
            for scheme in schemes])

    def test_matches_direct_system_runs(self):
        """An independent oracle: the same ratio from plain System runs."""
        value = run_spec(self._spec(scheme_spec("drr")),
                         engine=Engine(use_cache=False))["drr"]
        config = self.SIM.to_system_config()
        profiles = list(self.WORKLOAD.build())
        alone = [System([p], NoMitigation(), config=config).run()
                 .thread_finish_cycles[0] for p in profiles]
        scheme = System(profiles, DoubleRefreshRate(), config=config).run()
        base = System(profiles, NoMitigation(), config=config).run()
        assert value == relative_weighted_speedup(
            alone, scheme.thread_finish_cycles, base.thread_finish_cycles)

    def test_baseline_jobs_shared_between_schemes(self):
        engine = Engine(use_cache=False)
        run_spec(self._spec(scheme_spec("drr"),
                            scheme_spec("shadow", hcnt=4096)), engine=engine)
        # alone runs + shared baseline are shared; only the scheme
        # shared runs differ.
        distinct_profiles = len(set(self.WORKLOAD.build()))
        assert engine.stats.unique == distinct_profiles + 1 + 2
        assert engine.stats.executed == engine.stats.unique


class TestFig8OnEngine:
    """End-to-end determinism and caching through the real driver."""

    def test_jobs2_matches_jobs1(self, micro_fig8, tmp_path):
        serial = Engine(jobs=1, cache_dir=str(tmp_path / "serial"))
        parallel = Engine(jobs=2, cache_dir=str(tmp_path / "parallel"))
        r1 = fig8.run("smoke", engine=serial)
        r2 = fig8.run("smoke", engine=parallel)
        assert serial.stats.executed > 0
        assert parallel.stats.executed == serial.stats.executed
        assert r1 == r2

    def test_second_run_all_cache_hits(self, micro_fig8, tmp_path):
        first = Engine(cache_dir=str(tmp_path))
        r1 = fig8.run("smoke", engine=first)
        assert first.stats.executed == first.stats.unique > 0
        second = Engine(cache_dir=str(tmp_path))
        r2 = fig8.run("smoke", engine=second)
        assert second.stats.executed == 0
        assert second.stats.cache_hits == second.stats.unique
        assert r1 == r2

    def test_interrupted_run_resumes(self, micro_fig8, tmp_path):
        """A partial cache is reused, not restarted."""
        warm = Engine(cache_dir=str(tmp_path))
        fig8.run("smoke", engine=warm)
        # Simulate an interruption that lost part of the cache.
        entries = sorted(warm.cache.directory.glob("*.json"))
        for path in entries[: len(entries) // 2]:
            path.unlink()
        resumed = Engine(cache_dir=str(tmp_path))
        fig8.run("smoke", engine=resumed)
        assert resumed.stats.executed == len(entries) // 2
        assert resumed.stats.cache_hits == \
            resumed.stats.unique - len(entries) // 2


class TestCacheTmpCleanup:
    def test_wipe_removes_orphan_tmps(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put({"x": 1}, {"value": 1})
        (tmp_path / "orphan123.tmp").write_text("torn write")
        assert cache.wipe() == 2
        assert not list(tmp_path.iterdir())

    def test_put_cleans_stale_tmps(self, tmp_path):
        orphan = tmp_path / "stale456.tmp"
        orphan.write_text("torn write")
        cache = ResultCache(str(tmp_path), stale_tmp_age_s=0)
        cache.put({"x": 1}, {"value": 1})
        assert not orphan.exists()
        assert cache.get({"x": 1}) == {"value": 1}

    def test_fresh_tmps_are_left_alone(self, tmp_path):
        # A young tmp may belong to a concurrent writer mid-replace.
        fresh = tmp_path / "fresh789.tmp"
        fresh.write_text("concurrent writer")
        cache = ResultCache(str(tmp_path))   # default 1h staleness
        cache.put({"x": 1}, {"value": 1})
        assert fresh.exists()

    def test_engine_init_cleans_stale_tmps(self, tmp_path):
        orphan = tmp_path / "stale.tmp"
        orphan.write_text("torn write")
        age = time.time() - 7200
        os.utime(orphan, (age, age))
        Engine(cache_dir=str(tmp_path))
        assert not orphan.exists()


class TestFaultTolerance:
    """Failures, dead workers, keep-going and resume."""

    def _jobs(self, n=3):
        config = small_config()
        profiles = sorted(SPEC_PROFILES)[:n]
        return [alone_job(SPEC_PROFILES[p], BASELINE, config)
                for p in profiles]

    def _target(self):
        return sorted(SPEC_PROFILES)[0]

    def test_fail_fast_raises_job_failed_error(self, tmp_path):
        worker = functools.partial(_fail_for, target=self._target())
        engine = Engine(jobs=2, cache_dir=str(tmp_path), worker=worker)
        with pytest.raises(JobFailedError) as excinfo:
            engine.run(self._jobs(3))
        failure = excinfo.value.failure
        assert failure.exc_type == "ValueError"
        assert self._target() in failure.message
        assert "injected failure" in failure.traceback

    def test_keep_going_returns_partial_results(self, tmp_path):
        worker = functools.partial(_fail_for, target=self._target())
        engine = Engine(jobs=2, cache_dir=str(tmp_path), keep_going=True,
                        worker=worker)
        jobs = self._jobs(3)
        results = engine.run(jobs)
        assert len(results) == 2
        assert len(engine.failures) == 1
        assert engine.stats.executed == 2
        assert engine.stats.failed == 1
        (failed_job,) = engine.failures
        assert failed_job not in results
        report = engine.failure_report()
        json.dumps(report)                     # must be JSON-able
        assert report[0]["workloads"] == [self._target()] \
            or tuple(report[0]["workloads"]) == (self._target(),)

    def test_completed_jobs_resume_as_cache_hits(self, tmp_path):
        """The documented resume invariant: a failure mid-sweep keeps
        every completed result; the rerun only executes the loser."""
        worker = functools.partial(_fail_for, target=self._target())
        first = Engine(jobs=2, cache_dir=str(tmp_path), keep_going=True,
                       worker=worker)
        first.run(self._jobs(3))
        assert first.stats.executed == 2
        resumed = Engine(jobs=2, cache_dir=str(tmp_path),
                         worker=_canned_worker)
        results = resumed.run(self._jobs(3))
        assert len(results) == 3
        assert resumed.stats.cache_hits == 2
        assert resumed.stats.executed == 1

    def test_broken_pool_exhausted_retries_fail(self, tmp_path):
        """A worker death (os._exit, as after an OOM kill) breaks the
        pool: the dying job, and every job still unfinished with it,
        becomes a BrokenProcessPool JobFailure instead of being retried;
        fail-fast raises the first one."""
        worker = functools.partial(_exit_for, target=self._target())
        jobs = self._jobs(3)
        with pytest.raises(JobFailedError) as excinfo:
            Engine(jobs=2, cache_dir=str(tmp_path / "fast"),
                   worker=worker).run(jobs)
        assert excinfo.value.failure.exc_type == "BrokenProcessPool"

        engine = Engine(jobs=2, cache_dir=str(tmp_path / "cache"),
                        keep_going=True, worker=worker)
        results = engine.run(jobs)
        assert set(results) | set(engine.failures) == set(jobs)
        assert not set(results) & set(engine.failures)
        assert all(f.exc_type == "BrokenProcessPool"
                   for f in engine.failures.values())
        assert any(self._target() in f.workloads
                   for f in engine.failures.values())
        assert engine.stats.failed == len(engine.failures) >= 1

    def test_broken_pool_rebuilt_and_survivors_resubmitted(self, tmp_path):
        """After a pool breaks, every finished job is kept; a rerun opens
        a fresh pool, resubmits only the jobs that failed with it and
        serves the finished ones from the cache."""
        worker = functools.partial(_exit_for, target=self._target())
        jobs = self._jobs(3)
        cache_dir = str(tmp_path / "cache")
        engine = Engine(jobs=2, cache_dir=cache_dir, keep_going=True,
                        worker=worker)
        results = engine.run(jobs)
        rerun = Engine(jobs=2, cache_dir=cache_dir, worker=_canned_worker)
        assert len(rerun.run(jobs)) == len(jobs)
        assert rerun.stats.cache_hits == len(results)
        assert rerun.stats.executed == len(engine.failures) >= 1

    def test_pool_broken_at_submit_fails_unsubmitted_jobs(self, tmp_path,
                                                           monkeypatch):
        """A worker can die while later jobs are still being submitted;
        ``submit`` then raises, and those jobs fail like any other."""
        real_submit = ProcessPoolExecutor.submit
        submitted = []

        def submit(pool, fn, *args):
            if submitted:                      # one job already submitted
                raise BrokenProcessPool("worker died during submit")
            submitted.append(args)
            return real_submit(pool, fn, *args)

        monkeypatch.setattr(ProcessPoolExecutor, "submit", submit)
        jobs = self._jobs(3)
        engine = Engine(jobs=2, cache_dir=str(tmp_path), keep_going=True,
                        worker=_canned_worker)
        results = engine.run(jobs)
        assert set(results) == set(jobs[:1])
        assert set(engine.failures) == set(jobs[1:])
        assert all(f.exc_type == "BrokenProcessPool"
                   for f in engine.failures.values())

    def test_stats_summary_reports_failures(self):
        stats = EngineStats(submitted=4, unique=3, cache_hits=1,
                            executed=1, failed=1)
        assert stats.summary() == ("4 jobs (3 unique): 1 cache hits, "
                                   "1 executed, 1 failed")
        quiet = EngineStats(submitted=1, unique=1, cache_hits=1)
        assert quiet.summary().endswith(", 0 failed")

    def test_invalid_fault_knobs_rejected(self):
        # A seeded job that raised once raises again, so the engine
        # takes no retry, backoff or timeout knob (nor the CLI a flag).
        for knob in ({"retries": 1}, {"backoff_s": 0.5},
                     {"job_timeout": 5.0}, {"metrics": None}):
            with pytest.raises(TypeError):
                Engine(**knob)

    def test_failure_dataclass_roundtrip(self):
        job = self._jobs(1)[0]
        try:
            raise ValueError("boom")
        except ValueError as exc:
            failure = JobFailure.from_exception(job, exc)
        payload = failure.to_dict()
        assert payload["exc_type"] == "ValueError"
        assert payload["message"] == "boom"
        assert "ValueError: boom" in payload["traceback"]
        json.dumps(payload)
        assert failure.describe() == (
            f"none x {job.profiles[0].name} failed: ValueError: boom")


class TestEnvFaultInjection:
    """The REPRO_FAULT_INJECT hook used by the CI fault-injection job."""

    def test_injected_fault_matches_scheme(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "drr")
        job = alone_job(SPEC_PROFILES[sorted(SPEC_PROFILES)[0]],
                        scheme_spec("drr"), small_config())
        engine = Engine(jobs=1, cache_dir=str(tmp_path), keep_going=True)
        engine.run([job])
        (failure,) = engine.failures.values()
        assert "injected worker fault" in failure.message

    def test_no_match_runs_normally(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_FAULT_INJECT", "no-such-scheme")
        job = alone_job(SPEC_PROFILES[sorted(SPEC_PROFILES)[0]],
                        BASELINE, small_config())
        results = Engine(jobs=1, cache_dir=str(tmp_path)).run([job])
        assert results[job].requests_issued == 120


class TestConfigsBugfix:
    def test_explicit_zero_requests_rejected(self):
        fc = fidelity_config("smoke")
        with pytest.raises(ValueError):
            fc.sim_spec(requests=0)

    def test_none_requests_uses_fidelity_default(self):
        fc = fidelity_config("smoke")
        spec = fc.sim_spec(requests=None)
        assert spec.requests == fc.requests_per_thread
        assert (spec.to_system_config().requests_per_thread
                == fc.requests_per_thread)

    def test_explicit_requests_respected(self):
        fc = fidelity_config("smoke")
        spec = fc.sim_spec(requests=17)
        assert spec.to_system_config().requests_per_thread == 17


class TestFaultJobWiring:
    """Fault-injection jobs: cache identity, result round-trip."""

    def test_faults_key_absent_without_spec(self):
        # Back-compat guarantee: jobs without injection must keep the
        # cache identity they had before the field existed.
        p = SPEC_PROFILES["mcf"]
        job = alone_job(p, BASELINE, small_config())
        assert "faults" not in job.spec

    def test_fault_spec_differentiates_jobs(self):
        from repro.spec import fault_spec
        p = SPEC_PROFILES["mcf"]
        plain = alone_job(p, BASELINE, small_config())
        faulty = dataclasses.replace(plain, faults=fault_spec(hcnt=64))
        assert plain != faulty
        assert faulty.spec["faults"]["hcnt"] == 64
        other = dataclasses.replace(plain, faults=fault_spec(hcnt=128))
        assert faulty != other

    def test_job_result_faults_round_trip(self):
        payload = {k: 0 for k in (
            "cycles", "reads_completed", "requests_issued", "refreshes",
            "rfms", "acts", "precharges", "reads", "writes", "row_hits",
            "row_misses", "row_conflicts", "extra_act_cycles")}
        payload.update(thread_finish_cycles=[1], mitigation_name="none",
                       tck_ns=0.75)
        # Old cache entries predate the field entirely.
        assert JobResult.from_dict(dict(payload)).faults is None
        report = {"counts": {"uncorrectable": 2}, "panicked": False}
        result = JobResult.from_dict(dict(payload, faults=report))
        assert result.faults == report
        assert JobResult.from_dict(result.to_dict()).faults == report

    def test_executed_fault_job_reports_injection(self):
        from repro.spec import fault_spec
        from repro.workloads.hammer import hammer_profile
        job = Job(
            profiles=(hammer_profile("double-sided", victim_row=260),),
            scheme=scheme_spec("none"),
            config=SystemConfig(requests_per_thread=300, mlp=1, seed=3),
            faults=fault_spec(hcnt=64, seed=3))
        result = JobResult.from_dict(_execute(job))
        assert result.faults is not None
        assert result.faults["counts"]["bits_injected"] > 0
        assert result.metrics["faults"]["counts"] == \
            result.faults["counts"]
        # The same job without injection carries no report.
        plain = dataclasses.replace(job, faults=None)
        assert JobResult.from_dict(_execute(plain)).faults is None
