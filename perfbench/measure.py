"""One measured repetition of a workload, and the record it produces.

The record holds the timings, the host slow-down measured during them
(``hostspeed.py``), the simulated-outcome digest, the check results and the
counts the traced metrics are built from.  ``perfbench/rep.py`` runs :func:`run_once` in a
fresh interpreter.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.experiments.engine import Engine
from repro.utils.cache import canonical_json

from perfbench import probes
from perfbench.hostspeed import slowdown
from perfbench.workloads import WORKLOADS, commands

ROOT = Path(__file__).resolve().parent.parent


class SetupDone(Exception):
    """Raised at ``Engine.run`` entry when only set-up is measured."""


class TimedEngine(Engine):
    """An engine that notes when jobs reach it and keeps every result.

    ``on_enter`` is called once, when the first jobs reach :meth:`run`.
    """

    def __init__(self, *args, on_enter: Callable[[], None],
                 setup_only: bool = False, **kwargs):
        super().__init__(*args, **kwargs)
        self.on_enter = on_enter
        self.setup_only = setup_only
        self.entered: Optional[float] = None
        self.left: Optional[float] = None
        self.results: Dict = {}

    def run(self, jobs):
        jobs = list(jobs)
        if self.entered is None:
            self.entered = time.monotonic()
            self.on_enter()
        if self.setup_only:
            raise SetupDone
        results = super().run(jobs)
        self.left = time.monotonic()
        self.results.update(results)
        return results


def outcome_digest(results: Dict) -> str:
    """SHA-256 over every job's result, ``metrics`` excluded."""
    entries = []
    for job, result in results.items():
        payload = result.to_dict()
        payload.pop("metrics", None)
        entries.append([canonical_json(job.spec), payload])
    entries.sort(key=lambda entry: entry[0])
    return hashlib.sha256(canonical_json(entries).encode()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped pool workers."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def _pool_spans(engine: TimedEngine, jobs: List[Dict], wall_s: float,
                workers: int) -> Dict[str, float]:
    """Engine overhead around pooled jobs; zero when jobs ran inline."""
    if workers < 2 or not jobs:
        return {"pool_start_s": 0.0, "tail_idle_s": 0.0,
                "pool_overhead_s": 0.0}
    last_end: Dict[int, float] = {}
    for job in jobs:
        last_end[job["pid"]] = max(last_end.get(job["pid"], 0.0), job["end"])
    return {
        "pool_start_s": min(job["start"] for job in jobs) - engine.entered,
        "tail_idle_s": engine.left - min(last_end.values()),
        # Jobs' whole intervals, host-speed sampling included: the pool
        # is not charged for the sampler.
        "pool_overhead_s": wall_s - sum(job["end"] - job["start"]
                                        for job in jobs) / workers,
    }


def _totals(results: Dict) -> Dict[str, int]:
    totals = dict.fromkeys(("commands", "requests", "cycles", "acts", "refs",
                            "rfms", "reads", "writes", "bits_injected",
                            "uncorrectable", "repairs"), 0)
    for result in results.values():
        counts = (result.faults or {}).get("counts", {})
        for key, value in (
                ("commands", commands(result)),
                ("requests", result.requests_issued),
                ("cycles", result.cycles), ("acts", result.acts),
                ("refs", result.refreshes), ("rfms", result.rfms),
                ("reads", result.reads), ("writes", result.writes),
                ("bits_injected", counts.get("bits_injected", 0)),
                ("uncorrectable", counts.get("uncorrectable", 0)),
                ("repairs", counts.get("repairs", 0))):
            totals[key] += value
    return totals


def run_once(workload_name: str, seed: int, size: str, mode: str,
             tmp: Path, t0: float, setup_speed, workers: Optional[int] = None,
             setup_only: bool = False) -> Dict:
    """Run one repetition and return its record.

    ``t0`` is the monotonic time the interpreter was started at, so set-up
    covers start-up, imports and planning.  ``setup_speed`` is the
    :class:`~perfbench.hostspeed.HostSpeed` sampling since then; it is
    stopped when the jobs reach the engine.
    """
    workload = WORKLOADS[workload_name]
    workers = workers or workload.workers
    spool = tmp / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    engine = TimedEngine(
        jobs=workers, cache_dir=str(tmp / "cache"), keep_going=True,
        worker=functools.partial(probes.run_job, str(spool), mode),
        on_enter=setup_speed.stop, setup_only=setup_only)
    spans: Dict[str, float] = {}
    if mode == "spans":
        probes.time_cache(engine.cache, spans)
    plan_start = time.monotonic()
    try:
        output = workload.run(engine, seed, size)
    except SetupDone:
        output = None
    done = time.monotonic()
    if engine.entered is None:
        raise RuntimeError(f"{workload_name} never reached Engine.run")
    record = {"setup_s": engine.entered - t0 - setup_speed.spent_s,
              "setup_slowdown": slowdown([setup_speed.state()])}
    if setup_only:
        return record

    jobs = probes.read_spool(str(spool))
    wall_s = done - engine.entered
    checks = workload.check(output, seed, size, ROOT)
    stats = engine.stats
    record.update({
        "plan_s": engine.entered - plan_start,
        "wall_s": wall_s,
        "execute_s": sum(job["execute_s"] for job in jobs),
        "peak_rss_mb": peak_rss_mb(),
        "digest": outcome_digest(engine.results),
        "attempted": stats.unique + len(checks),
        "failed": stats.failed + sum(not ok for _, ok in checks),
        "failed_checks": [name for name, ok in checks if not ok],
        "jobs_executed": stats.executed,
        "jobs_deduped": stats.submitted - stats.unique,
        "jobs_failed": stats.failed,
        "cache_bytes": sum(path.stat().st_size
                           for path in (tmp / "cache").glob("*.json")),
        **_totals(engine.results),
        **_pool_spans(engine, jobs, wall_s,
                      min(workers, max(1, stats.executed))),
        **spans,
    })
    if mode == "plain":
        record["job_slowdown"] = slowdown(job["speed"] for job in jobs)
    if mode == "spans":
        record["materialize_s"] = sum(job["materialize_s"] for job in jobs)
        record["sim_run_s"] = sum(job["run_s"] for job in jobs)
    if mode == "profile":
        self_s = dict.fromkeys(probes.LAYERS, 0.0)
        for job in jobs:
            for layer, seconds in job["profile"]["self_s"].items():
                self_s[layer] += seconds
        record["self_s"] = self_s
        record["scans"] = sum(job["profile"]["scans"] for job in jobs)
    return record
