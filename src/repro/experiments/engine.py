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
  jobs that were in flight.  A rerun of the same sweep serves everything
  already completed from the cache and simulates only the remainder.

Failure model (see DESIGN.md for the full contract):

* a job that raises is retried up to ``retries`` times with exponential
  backoff (``backoff_s * 2**k``); a retry re-runs the same pure
  function, so retried results are value-identical to first-try ones;
* a dead worker (``BrokenProcessPool``) poisons every in-flight future;
  the engine rebuilds the pool and resubmits the survivors, charging
  one attempt to each in-flight job because the culprit is
  indistinguishable from the victims;
* ``job_timeout`` (seconds, workers only -- inline runs cannot be
  interrupted) kills the pool, fails or retries the overrunning jobs,
  and resubmits the innocent in-flight ones without charging them an
  attempt;
* a job that exhausts its attempts becomes a :class:`JobFailure`
  (exception type, message, traceback, attempts, wall time).  The
  default is fail-fast: :class:`JobFailedError` aborts the sweep (after
  caching every already-completed result).  With ``keep_going=True``
  the engine records the failure, finishes everything else, and returns
  the partial result dict; drivers read ``Engine.failures`` /
  :meth:`Engine.failure_report`.

Retry/timeout/crash counters are mirrored into a
:class:`~repro.obs.MetricRegistry` (``engine.*`` names) so failures are
visible wherever observability summaries are surfaced.

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
import time
import traceback as _tb
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import cached_property
from typing import (
    Any, Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from repro.obs import MetricRegistry
from repro.sim.system import System, SystemConfig, SystemResult
from repro.spec import FaultSpec, SchemeSpec, scheme_spec
from repro.utils.cache import DEFAULT_CACHE_DIR, ResultCache, spec_digest
from repro.workloads.trace import WorkloadProfile

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
        spec = {
            "profiles": [dataclasses.asdict(p) for p in self.profiles],
            "scheme": self.scheme.payload(),
            "config": dataclasses.asdict(self.config),
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
    the retry/keep-going machinery end to end without patching code.
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
    one attribute add per counted event and never perturbs timing.
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
    """One job's permanent failure, after all retries were spent.

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
    attempts: int
    duration_s: float
    timed_out: bool = False

    @classmethod
    def from_exception(cls, job: Job, exc: BaseException, attempts: int,
                       duration_s: float,
                       timed_out: bool = False) -> "JobFailure":
        trace = "".join(_tb.format_exception(
            type(exc), exc, exc.__traceback__)).rstrip()
        return cls(
            job_digest=spec_digest(job.spec),
            scheme=job.scheme.kind,
            workloads=tuple(p.name for p in job.profiles),
            exc_type=type(exc).__name__,
            message=str(exc),
            traceback=trace,
            attempts=attempts,
            duration_s=round(duration_s, 4),
            timed_out=timed_out,
        )

    def to_dict(self) -> Dict:
        return dataclasses.asdict(self)

    def describe(self) -> str:
        what = "timed out" if self.timed_out else "failed"
        return (f"{self.scheme} x {'+'.join(self.workloads)} {what} after "
                f"{self.attempts} attempt(s): {self.exc_type}: "
                f"{self.message}")


class JobFailedError(RuntimeError):
    """Raised in fail-fast mode when a job exhausts its attempts.

    Everything that completed before the failure is already in the
    cache, so rerunning the sweep resumes rather than restarts.
    """

    def __init__(self, job: Job, failure: JobFailure):
        self.job = job
        self.failure = failure
        message = f"job {failure.describe()}"
        if failure.traceback:
            message += f"\n{failure.traceback}"
        super().__init__(message)


class _JobTimeout(Exception):
    """Internal marker for a job that overran ``job_timeout``."""


class _Attempt:
    """Mutable per-job retry bookkeeping inside one ``Engine.run``."""

    __slots__ = ("job", "attempts", "started", "spent")

    def __init__(self, job: Job):
        self.job = job
        self.attempts = 0          # times this job was started
        self.started = 0.0         # monotonic start of the live attempt
        self.spent = 0.0           # wall seconds across finished attempts


# -- the engine --------------------------------------------------------------------

@dataclass
class EngineStats:
    """What one engine did, for the drivers' summary line."""

    submitted: int = 0       # jobs requested (before dedup)
    unique: int = 0          # distinct simulations needed
    cache_hits: int = 0      # served from the on-disk store
    executed: int = 0        # simulated AND cached/recorded this run
    failed: int = 0          # permanent failures (retries exhausted)
    retried: int = 0         # resubmissions after a transient failure
    timeouts: int = 0        # attempts killed by --job-timeout
    pool_crashes: int = 0    # BrokenProcessPool events (pool rebuilt)

    def summary(self) -> str:
        line = (f"{self.submitted} jobs ({self.unique} unique): "
                f"{self.cache_hits} cache hits, {self.executed} executed, "
                f"{self.failed} failed, {self.retried} retried")
        if self.timeouts:
            line += f", {self.timeouts} timed out"
        if self.pool_crashes:
            line += f", {self.pool_crashes} pool crashes"
        return line


#: How long the drain loop waits for the next completion before it
#: checks backoff parking and job deadlines.
_POLL_S = 0.25


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Forcefully tear a pool down, terminating its worker processes.

    ``shutdown`` alone would wait for (or leak) a runaway job; the only
    way to reclaim a worker stuck past its deadline is to kill it.
    """
    processes = getattr(pool, "_processes", None) or {}
    for process in list(processes.values()):
        try:
            process.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)


class Engine:
    """Runs jobs with dedup, persistent caching, workers and retries.

    ``retries``/``backoff_s`` bound per-job re-execution of transient
    failures; ``job_timeout`` (seconds) kills attempts that overrun
    (worker pools only); ``keep_going`` turns the default fail-fast
    :class:`JobFailedError` into a recorded :class:`JobFailure` plus
    partial results.  ``worker`` is the picklable per-job callable
    (tests inject deterministic faults through it); ``metrics`` is an
    optional shared :class:`~repro.obs.MetricRegistry` for the
    ``engine.*`` counters.
    """

    def __init__(self, jobs: int = 1,
                 cache_dir: Optional[str] = DEFAULT_CACHE_DIR,
                 use_cache: bool = True,
                 retries: int = 0,
                 backoff_s: float = 0.5,
                 job_timeout: Optional[float] = None,
                 keep_going: bool = False,
                 worker: Optional[Callable[[Job], Dict]] = None,
                 metrics: Optional[MetricRegistry] = None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if backoff_s < 0:
            raise ValueError("backoff_s must be >= 0")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive")
        self.max_workers = jobs
        self.cache = (ResultCache(cache_dir)
                      if use_cache and cache_dir else None)
        if self.cache is not None:
            self.cache.clean_stale_tmps()
        self.retries = retries
        self.backoff_s = backoff_s
        self.job_timeout = job_timeout
        self.keep_going = keep_going
        self.worker = worker if worker is not None else _execute
        self.stats = EngineStats()
        self.failures: Dict[Job, JobFailure] = {}
        self.metrics = metrics if metrics is not None else MetricRegistry()
        self._c_cache_hits = self.metrics.counter("engine.cache_hits")
        self._c_executed = self.metrics.counter("engine.executed")
        self._c_retries = self.metrics.counter("engine.retries")
        self._c_timeouts = self.metrics.counter("engine.timeouts")
        self._c_pool_crashes = self.metrics.counter("engine.pool_crashes")
        self._c_failures = self.metrics.counter("engine.failures")

    def failure_report(self) -> List[Dict]:
        """JSON-able record of every permanent failure, in the order
        they became permanent."""
        return [failure.to_dict() for failure in self.failures.values()]

    def run(self, jobs: Iterable[Job]) -> Dict[Job, JobResult]:
        """Execute every job; returns ``{job: result}``.

        Input order is irrelevant to the values (each job is an
        independent deterministic simulation), so any worker count --
        and any completion/retry order -- produces identical results.
        Each result is cached the moment it lands, so an interruption
        loses at most the in-flight jobs.  In keep-going mode jobs that
        failed permanently are absent from the dict and recorded in
        :attr:`failures`; otherwise the first permanent failure raises
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
        pending: List[Job] = []
        for job in ordered:
            cached = self.cache.get(job.spec) if self.cache else None
            if cached is not None:
                results[job] = JobResult.from_dict(cached)
                self.stats.cache_hits += 1
                self._c_cache_hits.inc()
            else:
                pending.append(job)

        if pending:
            inline = (self.max_workers == 1
                      or (len(pending) == 1 and self.job_timeout is None))
            if inline:
                self._run_inline(pending, results)
            else:
                self._run_pool(pending, results)
        return results

    # -- shared bookkeeping ------------------------------------------------------

    def _record(self, job: Job, payload: Dict,
                results: Dict[Job, JobResult]) -> None:
        """One completed job: cache first, then count it as executed."""
        if self.cache:
            self.cache.put(job.spec, payload)
        results[job] = JobResult.from_dict(payload)
        self.stats.executed += 1
        self._c_executed.inc()

    def _fail(self, job: Job, failure: JobFailure) -> None:
        self.failures[job] = failure
        self.stats.failed += 1
        self._c_failures.inc()
        if not self.keep_going:
            raise JobFailedError(job, failure)

    def _note_retry(self, n: int = 1) -> None:
        self.stats.retried += n
        self._c_retries.inc(n)

    def _backoff_delay(self, attempts: int) -> float:
        """Exponential backoff before attempt ``attempts + 1``."""
        return self.backoff_s * (2 ** max(0, attempts - 1))

    # -- inline execution (jobs=1) -----------------------------------------------

    def _run_inline(self, pending: Sequence[Job],
                    results: Dict[Job, JobResult]) -> None:
        for job in pending:
            attempt = _Attempt(job)
            while True:
                attempt.attempts += 1
                start = time.perf_counter()
                try:
                    payload = self.worker(job)
                except Exception as exc:
                    attempt.spent += time.perf_counter() - start
                    if attempt.attempts > self.retries:
                        self._fail(job, JobFailure.from_exception(
                            job, exc, attempt.attempts, attempt.spent))
                        break
                    self._note_retry()
                    delay = self._backoff_delay(attempt.attempts)
                    if delay:
                        time.sleep(delay)
                else:
                    attempt.spent += time.perf_counter() - start
                    self._record(job, payload, results)
                    break

    # -- pool execution (jobs>1) -------------------------------------------------

    def _run_pool(self, pending: Sequence[Job],
                  results: Dict[Job, JobResult]) -> None:
        """Submit each job as its own future and drain as completed.

        The in-flight window is bounded by the worker count, so a
        ``BrokenProcessPool`` or deadline kill only ever has to reason
        about (and resubmit) at most ``workers`` attempts, and a
        ``job_timeout`` measured from submission is a faithful per-job
        deadline (a submitted job starts immediately).
        """
        workers = min(self.max_workers, len(pending))
        queue: Deque[_Attempt] = deque(_Attempt(job) for job in pending)
        parked: List[Tuple[float, _Attempt]] = []   # backoff waiting room
        inflight: Dict[Any, _Attempt] = {}
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            while queue or inflight or parked:
                now = time.monotonic()
                if parked:
                    still_parked = []
                    for ready_at, attempt in parked:
                        if ready_at <= now:
                            queue.append(attempt)
                        else:
                            still_parked.append((ready_at, attempt))
                    parked = still_parked
                crashed_at_submit = False
                while queue and len(inflight) < workers:
                    attempt = queue.popleft()
                    attempt.attempts += 1
                    attempt.started = time.monotonic()
                    try:
                        future = pool.submit(self.worker, attempt.job)
                    except BrokenProcessPool:
                        # A worker died between drain iterations and the
                        # crash surfaced at submit time.  This attempt
                        # never ran, so it resubmits for free; the
                        # charge lands on the futures that were actually
                        # in flight (judged by ``_rebuild_pool``).
                        crashed_at_submit = True
                        attempt.attempts -= 1
                        queue.appendleft(attempt)
                        break
                    inflight[future] = attempt
                if crashed_at_submit:
                    pool = self._rebuild_pool(pool, workers, inflight,
                                              parked)
                    continue
                if not inflight:
                    # Everything is parked on backoff; sleep to the
                    # earliest release.
                    wake = min(ready_at for ready_at, _ in parked)
                    time.sleep(max(0.0, min(wake - now, _POLL_S)) or 0.001)
                    continue
                if self.job_timeout is not None:
                    tick = min(_POLL_S, max(0.01, self.job_timeout / 8))
                elif parked:
                    tick = 0.05
                else:
                    tick = _POLL_S
                done, _ = wait(list(inflight), timeout=tick,
                               return_when=FIRST_COMPLETED)
                # Record successes before acting on failures so a
                # fail-fast abort preserves every completed result.
                broken = False
                for future in sorted(done,
                                     key=lambda f: f.exception() is not None):
                    attempt = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool:
                        broken = True
                        self._after_crash(attempt, parked)
                    except Exception as exc:
                        attempt.spent += time.monotonic() - attempt.started
                        if attempt.attempts > self.retries:
                            self._fail(attempt.job, JobFailure.from_exception(
                                attempt.job, exc, attempt.attempts,
                                attempt.spent))
                        else:
                            self._note_retry()
                            self._park(attempt, parked)
                    else:
                        attempt.spent += time.monotonic() - attempt.started
                        self._record(attempt.job, payload, results)
                if broken:
                    pool = self._rebuild_pool(pool, workers, inflight,
                                              parked)
                    continue
                if self.job_timeout is not None and inflight:
                    now = time.monotonic()
                    expired = {f: a for f, a in inflight.items()
                               if now - a.started > self.job_timeout}
                    if expired:
                        pool = self._expire(pool, workers, inflight,
                                            expired, queue, parked, now)
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

    def _park(self, attempt: _Attempt,
              parked: List[Tuple[float, _Attempt]]) -> None:
        """Queue a retry after its exponential-backoff delay."""
        delay = self._backoff_delay(attempt.attempts)
        parked.append((time.monotonic() + delay, attempt))

    def _rebuild_pool(self, pool: ProcessPoolExecutor, workers: int,
                      inflight: Dict[Any, _Attempt],
                      parked: List[Tuple[float, _Attempt]],
                      ) -> ProcessPoolExecutor:
        """Replace a broken pool: judge the in-flight jobs, restart.

        Every in-flight future of a crashed pool is poisoned; each
        attempt is retried or failed (``_after_crash``) and the
        survivors re-enter the queue against a fresh pool.
        """
        self.stats.pool_crashes += 1
        self._c_pool_crashes.inc()
        try:
            for attempt in inflight.values():
                self._after_crash(attempt, parked)
        finally:
            # Even if fail-fast aborts mid-judgement, the broken pool
            # must not linger (the outer teardown re-shuts the old
            # handle, which is idempotent).
            inflight.clear()
            pool.shutdown(wait=False, cancel_futures=True)
        return ProcessPoolExecutor(max_workers=workers)

    def _after_crash(self, attempt: _Attempt,
                     parked: List[Tuple[float, _Attempt]]) -> None:
        """One in-flight job of a crashed pool: retry or fail it.

        The culprit is indistinguishable from the victims, so every
        in-flight job is charged one attempt; innocent ones simply
        succeed on resubmission.
        """
        attempt.spent += time.monotonic() - attempt.started
        if attempt.attempts > self.retries:
            self._fail(attempt.job, JobFailure(
                job_digest=spec_digest(attempt.job.spec),
                scheme=attempt.job.scheme.kind,
                workloads=tuple(p.name for p in attempt.job.profiles),
                exc_type="BrokenProcessPool",
                message="worker process died (crash or OOM kill)",
                traceback="",
                attempts=attempt.attempts,
                duration_s=round(attempt.spent, 4)))
        else:
            self._note_retry()
            self._park(attempt, parked)

    def _expire(self, pool: ProcessPoolExecutor, workers: int,
                inflight: Dict[Any, _Attempt],
                expired: Dict[Any, _Attempt],
                queue: Deque[_Attempt],
                parked: List[Tuple[float, _Attempt]],
                now: float) -> ProcessPoolExecutor:
        """Kill the pool to reclaim workers stuck past ``job_timeout``.

        Expired attempts are failed or retried; the innocent in-flight
        jobs the kill also took down are resubmitted without being
        charged an attempt.
        """
        self.stats.timeouts += len(expired)
        self._c_timeouts.inc(len(expired))
        survivors = [a for f, a in inflight.items() if f not in expired]
        inflight.clear()
        _kill_pool(pool)
        # Judge the expired attempts before building the replacement
        # pool: a fail-fast abort here must not leak fresh workers.
        for attempt in expired.values():
            attempt.spent += now - attempt.started
            if attempt.attempts > self.retries:
                self._fail(attempt.job, JobFailure(
                    job_digest=spec_digest(attempt.job.spec),
                    scheme=attempt.job.scheme.kind,
                    workloads=tuple(p.name for p in attempt.job.profiles),
                    exc_type=_JobTimeout.__name__,
                    message=(f"job exceeded --job-timeout "
                             f"{self.job_timeout}s"),
                    traceback="",
                    attempts=attempt.attempts,
                    duration_s=round(attempt.spent, 4),
                    timed_out=True))
            else:
                self._note_retry()
                self._park(attempt, parked)
        pool = ProcessPoolExecutor(max_workers=workers)
        for attempt in survivors:
            attempt.attempts -= 1      # not their fault; free resubmit
            queue.append(attempt)
        return pool


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
