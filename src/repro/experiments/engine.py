"""Parallel, cached execution engine for the experiment drivers.

Every figure sweep decomposes into independent full-system simulations:
run ``System(profiles, scheme, config)`` and record the outcome.  The
engine expresses each such simulation as a declarative :class:`Job`
(profiles + a named :class:`SchemeSpec` + a ``SystemConfig``), then

* **deduplicates** -- a baseline run shared by five schemes is
  simulated once;
* **caches** -- each job's result is content-addressed on disk under
  ``results/.cache`` keyed by a stable hash of the job spec plus a
  schema version, so re-running a sweep is near-instant and an
  interrupted run resumes instead of restarting;
* **parallelises** -- cache misses fan out across worker processes
  (``--jobs N``); with ``jobs=1`` everything runs inline;
* **survives failures** -- every pending job is its own future, drained
  as it completes and written to the cache *the moment it lands*, so a
  crash, OOM-killed worker or Ctrl-C at any point loses at most the
  jobs that had not finished.  A rerun of the same sweep serves everything
  already completed from the cache and simulates only the remainder.

Failure model (see DESIGN.md for the full contract): a job whose worker
raises -- including the ``BrokenProcessPool`` a dead worker leaves on
every unfinished future -- becomes a :class:`JobFailure` (exception
type, message, traceback).  Nothing is retried: a job is a seeded,
deterministic simulation, so one that raised once raises again.  The
default is fail-fast: :class:`JobFailedError` aborts the sweep (after
caching every already-completed result).  With ``keep_going=True`` the
engine records the failure, finishes everything else, and returns the
partial result dict; drivers read ``Engine.failures`` /
:meth:`Engine.failure_report`.

Scheme factories are lambdas and cannot cross a process boundary, so a
job carries a :class:`~repro.spec.SchemeSpec` -- a central-registry name
plus keyword parameters (:mod:`repro.spec.registry`) -- and each worker
rebuilds the mitigation from the registry.  The spec doubles as the
scheme half of the cache key.

Determinism is the invariant: ``System.run()`` is a pure function of the
job spec (seeds included), so results with ``jobs=8`` are value-identical
to ``jobs=1`` and to the pre-engine serial drivers.
"""

from __future__ import annotations

import dataclasses
import os
import traceback as _tb
from concurrent.futures import (
    FIRST_COMPLETED, Future, ProcessPoolExecutor, wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.system import System, SystemConfig, SystemResult
from repro.spec import FaultSpec, SchemeSpec, scheme_spec
from repro.utils.cache import DEFAULT_CACHE_DIR, ResultCache, spec_digest
from repro.workloads.trace import WorkloadProfile, trace_key

#: The unprotected baseline every figure normalises against.
BASELINE = scheme_spec("none")


def rfm_scheme_specs(hcnt: int,
                     blast_radius: int = 1) -> Dict[str, SchemeSpec]:
    """Spec form of the Figure 8/10 comparison set."""
    return {
        "SHADOW": scheme_spec("shadow", hcnt=hcnt),
        "PARFM": scheme_spec("parfm", hcnt=hcnt, radius=blast_radius),
        "Mithril-perf": scheme_spec("mithril-perf", hcnt=hcnt,
                                    radius=blast_radius),
        "Mithril-area": scheme_spec("mithril-area", hcnt=hcnt,
                                    radius=blast_radius),
        "DRR": scheme_spec("drr"),
    }


#: Steady-state correction for BlockHammer's epoch-length blacklist
#: counters: our runs cover roughly 1% of a CBF epoch (see
#: BlockHammerConfig.history_scale).
BLOCKHAMMER_HISTORY_SCALE = 100.0

#: Trace-rate normalization for BlockHammer's throttle (see
#: BlockHammerConfig.rate_scale): the synthetic hot rows run about an
#: order of magnitude hotter than the benign applications they model.
BLOCKHAMMER_RATE_SCALE = 10.0


def archsim_scheme_specs(hcnt: int) -> Dict[str, SchemeSpec]:
    """Spec form of the Figure 11 comparison set."""
    return {
        "SHADOW": scheme_spec("shadow", hcnt=hcnt),
        "BlockHammer": scheme_spec(
            "blockhammer", hcnt=hcnt,
            history_scale=BLOCKHAMMER_HISTORY_SCALE,
            rate_scale=BLOCKHAMMER_RATE_SCALE),
        "RRS": scheme_spec("rrs", hcnt=hcnt),
    }


# -- jobs and results --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Job:
    """One independent simulation: profiles x scheme x configuration.

    ``faults`` optionally attaches a fault-injection observer
    (:class:`~repro.spec.FaultSpec`) to the run.  The observer is
    passive -- it never perturbs timing -- but its report becomes part
    of the result, so it participates in the cache key.
    """

    profiles: Tuple[WorkloadProfile, ...]
    scheme: SchemeSpec
    config: SystemConfig
    faults: Optional[FaultSpec] = None

    def __post_init__(self) -> None:
        if not self.profiles:
            raise ValueError("a job needs at least one workload profile")

    @cached_property
    def spec(self) -> Dict:
        """The JSON-able cache key (identity) of this job."""
        config = dataclasses.asdict(self.config)
        # The key keeps the always-zero ``act_extra`` the timing set
        # once had, so every job keeps its historical identity.
        config["timing"]["act_extra"] = 0
        spec = {
            "profiles": [dataclasses.asdict(p) for p in self.profiles],
            "scheme": self.scheme.payload(),
            "config": config,
        }
        # Only fault-injection jobs carry the key, so every job written
        # before the field existed keeps its historical cache identity.
        if self.faults is not None:
            spec["faults"] = self.faults.to_dict()
        return spec

    @cached_property
    def _identity(self) -> str:
        from repro.utils.cache import canonical_json
        return canonical_json(self.spec)

    def __hash__(self) -> int:
        return hash(self._identity)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Job) and self._identity == other._identity


def alone_job(profile: WorkloadProfile, scheme: SchemeSpec,
              config: SystemConfig) -> Job:
    """A single-thread run (the alone time of weighted speedup)."""
    return Job((profile,), scheme, config)


def shared_job(profiles: Sequence[WorkloadProfile], scheme: SchemeSpec,
               config: SystemConfig) -> Job:
    """A multi-thread shared run."""
    return Job(tuple(profiles), scheme, config)


@dataclass
class JobResult:
    """The JSON-serialisable slice of a run the figures consume."""

    cycles: int
    thread_finish_cycles: List[int]
    reads_completed: int
    requests_issued: int
    refreshes: int
    rfms: int
    mitigation_name: str
    tck_ns: float
    acts: int
    precharges: int
    reads: int
    writes: int
    row_hits: int
    row_misses: int
    row_conflicts: int
    extra_act_cycles: int
    #: Observability summary captured at run time (``collect_summary``).
    #: Defaults to ``None`` so cache entries written before this field
    #: existed still deserialise.
    metrics: Optional[Dict] = None
    #: Fault-injection report (``FaultInjector.report()``) when the job
    #: carried a ``FaultSpec``; ``None`` (and absent from old cache
    #: entries) otherwise.
    faults: Optional[Dict] = None

    @property
    def finish_ns(self) -> List[float]:
        return [c * self.tck_ns for c in self.thread_finish_cycles]

    @classmethod
    def from_system_result(cls, result: SystemResult,
                           metrics: Optional[Dict] = None,
                           faults: Optional[Dict] = None) -> "JobResult":
        stats = result.stats
        return cls(
            cycles=result.cycles,
            thread_finish_cycles=list(result.thread_finish_cycles),
            reads_completed=result.reads_completed,
            requests_issued=result.requests_issued,
            refreshes=result.refreshes,
            rfms=result.rfms,
            mitigation_name=result.mitigation_name,
            tck_ns=result.tck_ns,
            acts=stats.acts,
            precharges=stats.precharges,
            reads=stats.reads,
            writes=stats.writes,
            row_hits=stats.row_hits,
            row_misses=stats.row_misses,
            row_conflicts=stats.row_conflicts,
            extra_act_cycles=stats.extra_act_cycles,
            metrics=metrics,
            faults=faults,
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict) -> "JobResult":
        return cls(**payload)


def _maybe_inject_fault(job: Job) -> None:
    """CI/test fault hook: ``REPRO_FAULT_INJECT=tok[,tok...]`` makes any
    job whose scheme kind or any profile name contains a token raise.

    Lets the fault-injection smoke job (and manual experiments) exercise
    the failure report, ``keep_going`` and the cache-hit resume end to
    end without patching code.
    """
    tokens = os.environ.get("REPRO_FAULT_INJECT")
    if not tokens:
        return
    names = [job.scheme.kind] + [p.name for p in job.profiles]
    for token in tokens.split(","):
        token = token.strip()
        if token and any(token in name for name in names):
            raise RuntimeError(
                f"injected worker fault (REPRO_FAULT_INJECT={token!r})")


def _execute(job: Job) -> Dict:
    """Worker entry point: simulate one job (module-level for pickling).

    Runs with the metric registry on (no tracing, no sampling) so every
    cached result carries its observability summary; the registry costs
    a few field updates per counted event (no Python-level call on the
    per-command path) and never perturbs timing.
    """
    from repro.obs import Observability
    _maybe_inject_fault(job)
    obs = Observability(metrics=True)
    observer = job.faults.build() if job.faults is not None else None
    if observer is not None:
        observer.attach_obs(obs)
    system = System(list(job.profiles), job.scheme.build(),
                    observer=observer, config=job.config, obs=obs)
    result = system.run()
    faults = observer.report() if observer is not None else None
    return JobResult.from_system_result(
        result, metrics=obs.summary, faults=faults).to_dict()


# -- failures ----------------------------------------------------------------------

@dataclass
class JobFailure:
    """One job's failure: the exception its worker raised.

    Self-describing (digest + scheme + workload names travel with the
    exception details) so :meth:`Engine.failure_report` is a JSON-able
    record a driver can persist next to partial results.
    """

    job_digest: str
    scheme: str
    workloads: Tuple[str, ...]
    exc_type: str
    message: str
    traceback: str

    @classmethod
    def from_exception(cls, job: Job, exc: BaseException) -> "JobFailure":
        trace = "".join(_tb.format_exception(
            type(exc), exc, exc.__traceback__)).rstrip()
        return cls(
            job_digest=spec_digest(job.spec),
            scheme=job.scheme.kind,
            workloads=tuple(p.name for p in job.profiles),
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=trace,
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        return (f"{self.scheme} x {'+'.join(self.workloads)} failed: "
                f"{self.exc_type}: {self.message}")


class JobFailedError(RuntimeError):
    """Raised in fail-fast mode when a job fails.

    Everything that completed before the failure is already in the
    cache, so rerunning the sweep resumes rather than restarts.
    """

    def __init__(self, job: Job, failure: JobFailure):
        self.job = job
        self.failure = failure
        super().__init__(f"job {failure.describe()}\n{failure.traceback}")


# -- the engine --------------------------------------------------------------------

@dataclass
class EngineStats:
    """What one engine did, for the drivers' summary line."""

    submitted: int = 0       # jobs requested (before dedup)
    unique: int = 0          # distinct simulations needed
    cache_hits: int = 0      # served from the on-disk store
    executed: int = 0        # simulated AND cached/recorded this run
    failed: int = 0          # jobs whose worker raised

    def summary(self) -> str:
        return (f"{self.submitted} jobs ({self.unique} unique): "
                f"{self.cache_hits} cache hits, {self.executed} executed, "
                f"{self.failed} failed")


class Engine:
    """Runs jobs with dedup, persistent caching and worker processes.

    ``keep_going`` turns the default fail-fast :class:`JobFailedError`
    into a recorded :class:`JobFailure` plus partial results.
    ``worker`` is the picklable per-job callable (tests inject
    deterministic faults through it).
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                 use_cache: bool = True,
                 keep_going: bool = False,
                 worker: Optional[Callable[[Job], Dict]] = None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.max_workers = jobs
        self.cache = (ResultCache(cache_dir)
                      if use_cache and cache_dir else None)
        self.keep_going = keep_going
        self.worker = worker if worker is not None else _execute
        self.stats = EngineStats()
        self.failures: Dict[Job, JobFailure] = {}

    def failure_report(self) -> List[Dict]:
        """JSON-able record of every failure, in the order they
        happened."""
        return [failure.to_dict() for failure in self.failures.values()]

    def run(self, jobs: Iterable[Job]) -> Dict[Job, JobResult]:
        """Execute every job; returns ``{job: result}``.

        Input order is irrelevant to the values (each job is an
        independent deterministic simulation), so any worker count --
        and any completion order -- produces identical results.  Jobs
        run grouped by :func:`~repro.workloads.trace.trace_key` (groups
        in first-seen order, input order within a group), so the jobs
        of one trace reach a worker back to back and reuse its
        materialized trace (DESIGN.md section 8).  Each
        result is cached the moment it lands, so an interruption loses
        at most the unfinished jobs.  In keep-going mode jobs that
        failed are absent from the dict and recorded in
        :attr:`failures`; otherwise the first failure raises
        :class:`JobFailedError`.
        """
        ordered: List[Job] = []
        seen = set()
        submitted = 0
        for job in jobs:
            submitted += 1
            if job not in seen:
                seen.add(job)
                ordered.append(job)
        self.stats.submitted += submitted
        self.stats.unique += len(ordered)

        results: Dict[Job, JobResult] = {}
        groups: Dict[Tuple, List[Job]] = {}
        for job in ordered:
            cached = self.cache.get(job.spec) if self.cache else None
            if cached is not None:
                results[job] = JobResult.from_dict(cached)
                self.stats.cache_hits += 1
            else:
                groups.setdefault(trace_key(job.profiles, job.config),
                                  []).append(job)
        pending = [job for group in groups.values() for job in group]

        if self.max_workers == 1 or len(pending) == 1:
            self._run_inline(pending, results)
        elif pending:
            self._run_pool(pending, results)
        return results

    def _record(self, job: Job, payload: Dict,
                results: Dict[Job, JobResult]) -> None:
        """One completed job: cache first, then count it as executed."""
        if self.cache:
            self.cache.put(job.spec, payload)
        results[job] = JobResult.from_dict(payload)
        self.stats.executed += 1

    def _fail(self, job: Job, exc: BaseException) -> None:
        failure = JobFailure.from_exception(job, exc)
        self.failures[job] = failure
        self.stats.failed += 1
        if not self.keep_going:
            raise JobFailedError(job, failure)

    def _run_inline(self, pending: Sequence[Job],
                    results: Dict[Job, JobResult]) -> None:
        for job in pending:
            try:
                payload = self.worker(job)
            except Exception as exc:
                self._fail(job, exc)
            else:
                self._record(job, payload, results)

    def _run_pool(self, pending: Sequence[Job],
                  results: Dict[Job, JobResult]) -> None:
        """Submit every job as its own future and drain as completed.

        A dead worker breaks the pool, which fails every unfinished
        future with ``BrokenProcessPool``; each becomes that job's
        failure like any other exception.
        """
        pool = ProcessPoolExecutor(
            max_workers=min(self.max_workers, len(pending)))
        try:
            futures: Dict[Future, Job] = {}
            for job in pending:
                try:
                    future = pool.submit(self.worker, job)
                except BrokenProcessPool as exc:
                    # A worker died before every job was submitted.
                    future = Future()
                    future.set_exception(exc)
                futures[future] = job
            while futures:
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                # Record successes before acting on failures so a
                # fail-fast abort preserves every completed result.
                for future in sorted(done,
                                     key=lambda f: f.exception() is not None):
                    job = futures.pop(future)
                    try:
                        payload = future.result()
                    except Exception as exc:
                        self._fail(job, exc)
                    else:
                        self._record(job, payload, results)
        except BaseException:
            # Abort path (fail-fast, Ctrl-C): don't wait for in-flight
            # jobs to drain -- cancel the queue and leave immediately.
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        else:
            # Clean path: everything is drained, so joining is instant
            # and leaves no half-shut management thread for the
            # interpreter-exit hook to race against (EBADF noise).
            pool.shutdown(wait=True, cancel_futures=True)


__all__ = [
    "BASELINE",
    "BLOCKHAMMER_HISTORY_SCALE",
    "BLOCKHAMMER_RATE_SCALE",
    "Engine",
    "EngineStats",
    "Job",
    "JobFailedError",
    "JobFailure",
    "JobResult",
    "SchemeSpec",
    "alone_job",
    "archsim_scheme_specs",
    "rfm_scheme_specs",
    "scheme_spec",
    "shared_job",
]
