"""Pinned scheduler benchmarks and the report/regression machinery.

Every profile is fully seeded: the simulated outcome (cycles, command
counts) is deterministic, so ``cycles / wall_seconds`` is a clean
throughput metric for the command-level hot path.  Wall time is the only
noisy quantity; ``repeats`` takes the best of N runs to suppress jitter.

The report format (schema ``shadow-repro-bench/1``) keeps one entry per
variant (``quick`` / ``full``) so CI's quick runs compare against the
committed quick baseline rather than against full-length numbers.
"""

from __future__ import annotations

import json
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.sim import System, SystemConfig
from repro.spec import FaultSpec, SchemeSpec
from repro.workloads.trace import WorkloadProfile

SCHEMA = "shadow-repro-bench/1"

#: Overhead-gate measurement shape: each timed block covers at least
#: this much wall (fast profiles run several times per block), and the
#: interleaved on/off block pairs repeat for this many rounds.
_GATE_BLOCK_SECONDS = 0.25
_GATE_MAX_INNER = 16
_GATE_ROUNDS = 9

#: Requests-per-thread divisor for the quick (CI) variant.
QUICK_DIVISOR = 8

# -- pinned workloads -----------------------------------------------------------

#: Streaming with high row-buffer locality: the open-row hit scan is the
#: hot path (FR-FCFS serves long runs of column commands per ACT).
_HIT_HEAVY = WorkloadProfile(
    name="bench-hit", mpki=50.0, row_buffer_locality=0.92,
    write_fraction=0.2, footprint_pages=256, sequential=True)

#: Near-zero locality over a wide footprint: almost every access is an
#: ACT/PRE pair, stressing the demand-candidate and rank-timing paths.
_CONFLICT_HEAVY = WorkloadProfile(
    name="bench-conflict", mpki=50.0, row_buffer_locality=0.05,
    write_fraction=0.3, footprint_pages=8192, zipf_alpha=0.4)

#: Low-intensity traffic whose inter-request gaps dwarf tREFI: the
#: refresh/idle-wake machinery dominates the event count.
_REFRESH_DOMINATED = WorkloadProfile(
    name="bench-refresh", mpki=0.6, row_buffer_locality=0.3,
    write_fraction=0.25, footprint_pages=1024)

#: Many mostly-idle threads with even sparser traffic than
#: ``bench-refresh``: nearly every simulated cycle is fast-forwarded, so
#: the event loop's horizon selection (not command issue) is the hot
#: path being measured.
_IDLE_HEAVY = WorkloadProfile(
    name="bench-idle", mpki=0.25, row_buffer_locality=0.4,
    write_fraction=0.25, footprint_pages=2048)


@dataclass(frozen=True)
class BenchProfile:
    """One pinned, seeded benchmark configuration.

    The mitigation is a declarative :class:`~repro.spec.SchemeSpec`
    (central-registry name + parameters) rather than a factory callable,
    so a profile -- like an engine job -- is plain, serialisable data.
    """

    name: str
    description: str
    workload: WorkloadProfile
    threads: int
    requests_per_thread: int
    seed: int
    scheme: SchemeSpec = field(
        default_factory=lambda: SchemeSpec("none"))
    enable_refresh: bool = True
    #: Optional in-loop fault injection (a declarative FaultSpec); the
    #: injector rides the controller's observer seam and never perturbs
    #: the simulated outcome, only wall time.
    faults: Optional[FaultSpec] = None

    def build(self, quick: bool, obs=None, observer=None) -> System:
        requests = self.requests_per_thread
        if quick:
            requests = max(64, requests // QUICK_DIVISOR)
        config = SystemConfig(requests_per_thread=requests, seed=self.seed,
                              enable_refresh=self.enable_refresh)
        if observer is None and self.faults is not None:
            observer = self.faults.build()
        return System([self.workload] * self.threads,
                      self.scheme.build(), observer=observer,
                      config=config, obs=obs)


BENCH_PROFILES: Dict[str, BenchProfile] = {
    p.name: p for p in (
        BenchProfile(
            name="hit-heavy",
            description="streaming row-buffer hits, no mitigation",
            workload=_HIT_HEAVY, threads=4,
            requests_per_thread=12000, seed=101),
        BenchProfile(
            name="conflict-heavy",
            description="row-miss traffic over a wide footprint",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=4000, seed=202),
        BenchProfile(
            name="shadow-rfm",
            description="SHADOW at RAAIMT=32: RFM-heavy + translation",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=303,
            scheme=SchemeSpec("shadow-raw", (("raaimt", 32),))),
        BenchProfile(
            name="refresh-dominated",
            description="sparse traffic; REF/idle-wake dominates events",
            workload=_REFRESH_DOMINATED, threads=2,
            requests_per_thread=1500, seed=404),
        BenchProfile(
            name="idle-heavy",
            description="many near-idle threads; event-horizon "
                        "fast-forward dominates",
            workload=_IDLE_HEAVY, threads=16,
            requests_per_thread=250, seed=505),
        BenchProfile(
            name="tracker-heavy",
            description="row-miss traffic into a composed tracker "
                        "scheme (DAPPER at a low threshold): per-ACT "
                        "observe, frequent RFM TRR work, REF-window "
                        "resets",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=606,
            scheme=SchemeSpec("dapper", (("hcnt", 1024),))),
        BenchProfile(
            name="faults-on",
            description="row-miss traffic with in-loop fault injection "
                        "at a tiny threshold: per-ACT disturbance "
                        "accumulation plus live ECC/recovery work",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=3000, seed=707,
            faults=FaultSpec(hcnt=64, policy="retire", seed=707)),
    )
}


# -- measurement ------------------------------------------------------------------

def run_one(profile: BenchProfile, quick: bool = False, repeats: int = 1,
            obs_factory: Optional[Callable[[], object]] = None) -> Dict:
    """Run one pinned profile; returns its report entry.

    ``obs_factory`` builds a fresh :class:`~repro.obs.Observability` per
    repeat (observability state is single-run); ``None`` benches the
    instrumentation-off fast path.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    best_wall = None
    result = None
    for _ in range(repeats):
        obs = obs_factory() if obs_factory is not None else None
        system = profile.build(quick, obs=obs)
        t0 = time.perf_counter()
        result = system.run()
        wall = time.perf_counter() - t0
        if obs is not None:
            obs.close()
        if best_wall is None or wall < best_wall:
            best_wall = wall
    entry = {
        "description": profile.description,
        "quick": quick,
        "threads": profile.threads,
        "requests": result.requests_issued,
        "cycles": result.cycles,
        "acts": result.stats.acts,
        "row_hits": result.stats.row_hits,
        "refreshes": result.refreshes,
        "rfms": result.rfms,
        "wall_s": round(best_wall, 4),
        "cycles_per_s": round(result.cycles / best_wall, 1),
    }
    return entry


def run_bench(names: Optional[List[str]] = None, quick: bool = False,
              repeats: int = 1, log=print,
              obs_factory: Optional[Callable[[], object]] = None,
              keep_going: bool = False) -> Dict[str, Dict]:
    """Run the pinned profile set; returns ``{name: entry}``.

    With ``keep_going``, a profile that raises becomes an ``{"error":
    {"type", "message"}}`` entry and the sweep continues -- the report
    stays complete and :func:`check_regression` flags the failure --
    instead of one bad profile aborting the whole bench run.
    """
    if names is None:
        names = list(BENCH_PROFILES)
    unknown = sorted(set(names) - set(BENCH_PROFILES))
    if unknown:
        raise ValueError(f"unknown bench profiles: {unknown}; "
                         f"choose from {sorted(BENCH_PROFILES)}")
    results = {}
    for name in names:
        try:
            entry = run_one(BENCH_PROFILES[name], quick=quick,
                            repeats=repeats, obs_factory=obs_factory)
        except Exception as exc:
            if not keep_going:
                raise
            entry = {
                "description": BENCH_PROFILES[name].description,
                "quick": quick,
                "error": {"type": type(exc).__name__,
                          "message": str(exc)},
            }
            results[name] = entry
            if log is not None:
                log(f"{name:>18}: FAILED "
                    f"({type(exc).__name__}: {exc})")
            continue
        results[name] = entry
        if log is not None:
            log(f"{name:>18}: {entry['cycles']:>9} cycles in "
                f"{entry['wall_s']:.2f}s -> {entry['cycles_per_s']:>10.0f} "
                f"cycles/s")
    return results


def _trace_obs_factory(trace_dir, profile_name: str):
    """Factory of per-repeat Observability hubs tracing to a file."""
    from repro.obs import Observability
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{profile_name}.trace.json"

    def factory():
        return Observability.to_chrome(path, sample_interval=10_000)

    return factory


def run_overhead(names: Optional[List[str]] = None, quick: bool = False,
                 repeats: int = 1, trace_dir=None,
                 retry_over: Optional[float] = None,
                 log=print) -> Dict[str, Dict]:
    """Measure instrumentation overhead: each profile off vs fully on.

    The "on" leg enables metrics, Chrome tracing (to ``trace_dir`` when
    given, an in-memory sink otherwise) and the snapshot sampler -- the
    most expensive observability configuration.  Both legs run on this
    host back to back, so the ratio cancels machine speed; the committed
    baseline report plays no part.  Returns ``{name: {"off": entry,
    "on": entry, "overhead": fraction}}``.

    A percent-level ratio needs care on a noisy host, so the
    measurement differs from :func:`run_one` in three ways.  The legs
    are *interleaved* -- each round times one on and one off block back
    to back (order alternating), so load drift between legs cancels.
    Each timed block runs a fast profile several times back-to-back
    (``inner``) so every block covers at least ``_GATE_BLOCK_SECONDS``
    of wall: a ~20ms profile timed alone jitters by +-50% per draw,
    which no feasible number of rounds averages away.  And the per-leg
    estimate is the *second-smallest* block across rounds -- the plain
    minimum is an extreme statistic one lucky draw can skew, while
    means and medians absorb the host's multiplicative load bursts.

    ``retry_over`` (a fraction, normally the gate threshold): a profile
    whose first estimate exceeds it is measured once more and the lower
    of the two estimates kept.  Load-burst noise only ever *inflates* an
    estimate, so min-of-two-measurements is strictly closer to the true
    overhead; a genuine regression shows up in both and still fails.
    """
    if names is None:
        names = list(BENCH_PROFILES)
    unknown = sorted(set(names) - set(BENCH_PROFILES))
    if unknown:
        raise ValueError(f"unknown bench profiles: {unknown}; "
                         f"choose from {sorted(BENCH_PROFILES)}")
    from repro.obs import Observability
    results = {}
    for name in names:
        profile = BENCH_PROFILES[name]
        if trace_dir is not None:
            factory = _trace_obs_factory(trace_dir, name)
        else:
            def factory():
                return Observability.in_memory(sample_interval=10_000)

        def make_on(profile=profile, factory=factory):
            obs = factory()
            return profile.build(quick, obs=obs), obs

        results[name] = _overhead_gate(
            name, profile, quick, repeats, retry_over, make_on,
            what="observability", log=log)
    return results


def run_fault_overhead(names: Optional[List[str]] = None,
                       quick: bool = False, repeats: int = 1,
                       retry_over: Optional[float] = None,
                       log=print) -> Dict[str, Dict]:
    """Measure fault-injection overhead: each profile off vs injector on.

    The "on" leg attaches a fresh :class:`~repro.faults.FaultInjector`
    (default :class:`~repro.spec.FaultSpec`, so online disturbance
    accumulation at the paper's Hcnt) to the controller's observer
    seam; no other instrumentation runs, so the ratio isolates the
    per-ACT accumulation cost.  Shares :func:`run_overhead`'s
    interleaved-block statistics, and its probe-vs-on cycles check
    doubles as the passivity assert: injection must never perturb the
    simulated outcome.  Profiles that bake in their own ``faults``
    (e.g. ``faults-on``) are excluded -- their off leg would not be
    injection-free.
    """
    if names is None:
        names = [n for n, p in BENCH_PROFILES.items() if p.faults is None]
    unknown = sorted(set(names) - set(BENCH_PROFILES))
    if unknown:
        raise ValueError(f"unknown bench profiles: {unknown}; "
                         f"choose from {sorted(BENCH_PROFILES)}")
    baked = sorted(n for n in names if BENCH_PROFILES[n].faults is not None)
    if baked:
        raise ValueError(f"profiles {baked} bake in fault injection; "
                         f"their off leg cannot be injection-free")
    results = {}
    for name in names:
        profile = BENCH_PROFILES[name]

        def make_on(profile=profile):
            return profile.build(quick, observer=FaultSpec().build()), None

        results[name] = _overhead_gate(
            name, profile, quick, repeats, retry_over, make_on,
            what="fault injection", log=log)
    return results


def _overhead_gate(name: str, profile: BenchProfile, quick: bool,
                   repeats: int, retry_over: Optional[float], make_on,
                   what: str, log) -> Dict:
    """Interleaved on-vs-off measurement for one profile.

    ``make_on()`` builds one "on"-leg run as ``(system, closeable)``
    (closeable may be ``None``); the off leg is the bare profile.  See
    :func:`run_overhead` for the statistics rationale.  Raises
    ``RuntimeError`` if the on leg changes the simulated cycle count.
    """
    def block(inner, on=False):
        """One timed region of ``inner`` back-to-back fresh runs."""
        pairs = []
        for _ in range(inner):
            pairs.append(make_on() if on
                         else (profile.build(quick), None))
        t0 = time.perf_counter()
        result = None
        for system, _closer in pairs:
            result = system.run()
        wall = time.perf_counter() - t0
        for _system, closer in pairs:
            if closer is not None:
                closer.close()
        return wall, result

    probe_wall, probe = block(1)
    inner = min(_GATE_MAX_INNER, max(1, round(
        _GATE_BLOCK_SECONDS / max(probe_wall, 1e-6))))
    rounds = max(repeats, _GATE_ROUNDS)

    def measure():
        off_walls, on_walls, result = [], [], None
        for r in range(rounds):
            # Alternate leg order so within-round effects (GC debt,
            # a load burst spanning one pair) don't bias one leg.
            if r % 2 == 0:
                wall, result = block(inner, on=True)
                on_walls.append(wall)
                off_walls.append(block(inner)[0])
            else:
                off_walls.append(block(inner)[0])
                wall, result = block(inner, on=True)
                on_walls.append(wall)
        return sorted(off_walls)[1], sorted(on_walls)[1], result

    off_wall, on_wall, on_result = measure()
    if probe.cycles != on_result.cycles:
        raise RuntimeError(
            f"{name}: {what} changed the simulated outcome "
            f"({probe.cycles} vs {on_result.cycles} cycles)")
    overhead = on_wall / off_wall - 1.0
    if retry_over is not None and overhead > retry_over:
        off2, on2, on_result = measure()
        if on2 / off2 < on_wall / off_wall:
            off_wall, on_wall = off2, on2
            overhead = on_wall / off_wall - 1.0
    if log is not None:
        log(f"{name:>18}: off {off_wall / inner:.3f}s, on "
            f"{on_wall / inner:.3f}s (x{inner} runs/block) "
            f"-> {overhead:+.1%} overhead")
    return {
        "off": _leg_entry(off_wall, inner, probe),
        "on": _leg_entry(on_wall, inner, on_result),
        "overhead": round(overhead, 4),
    }


def _leg_entry(block_wall: float, inner: int, result) -> Dict:
    """Report entry for one overhead-gate leg (per-run normalized)."""
    wall = block_wall / inner
    return {
        "cycles": result.cycles,
        "requests": result.requests_issued,
        "wall_s": round(wall, 4),
        "cycles_per_s": round(result.cycles / wall, 1),
        "runs_per_block": inner,
    }


def check_overhead(results: Dict[str, Dict],
                   max_overhead: float) -> List[str]:
    """Failure messages for profiles whose on-vs-off overhead exceeds
    ``max_overhead`` (a fraction, e.g. 0.15)."""
    if max_overhead <= 0:
        raise ValueError("max_overhead must be positive")
    failures = []
    for name, entry in results.items():
        if entry["overhead"] > max_overhead:
            failures.append(
                f"{name}: instrumentation overhead {entry['overhead']:+.1%} "
                f"exceeds {max_overhead:.0%}")
    return failures


# -- report I/O ---------------------------------------------------------------------

def load_report(path) -> Dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def write_report(path, variant: str, results: Dict[str, Dict],
                 extra: Optional[Dict] = None) -> Dict:
    """Merge ``results`` for ``variant`` into the report at ``path``.

    Existing entries for other variants (and any ``pre_pr`` reference
    section) are preserved so one file carries the whole trajectory.
    """
    path = Path(path)
    report = {}
    if path.exists():
        report = load_report(path)
    report.setdefault("schema", SCHEMA)
    report["host"] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
    }
    report.setdefault("variants", {})[variant] = results
    if extra:
        report.update(extra)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return report


def check_regression(results: Dict[str, Dict], baseline: Dict,
                     variant: str, max_regression: float) -> List[str]:
    """Compare ``results`` against a report's matching variant.

    Returns failure messages for every profile whose cycles/s dropped by
    more than ``max_regression`` (a fraction, e.g. 0.30).  Profiles
    missing from the baseline are skipped (new profiles are allowed).
    """
    if not 0 <= max_regression < 1:
        raise ValueError("max_regression must be in [0, 1)")
    base_variant = baseline.get("variants", {}).get(variant, {})
    failures = []
    for name, entry in results.items():
        if "error" in entry:
            failures.append(
                f"{name}: failed to run ({entry['error']['type']}: "
                f"{entry['error']['message']})")
            continue
        base = base_variant.get(name)
        if base is None:
            continue
        floor = base["cycles_per_s"] * (1.0 - max_regression)
        if entry["cycles_per_s"] < floor:
            failures.append(
                f"{name}: {entry['cycles_per_s']:.0f} cycles/s is below "
                f"{floor:.0f} (baseline {base['cycles_per_s']:.0f} "
                f"- {max_regression:.0%})")
    return failures
