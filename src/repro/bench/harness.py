"""Pinned scheduler profiles and the two overhead gates.

Every profile is fully seeded: the simulated outcome (cycles, command
counts) is deterministic, so an on-vs-off wall-time ratio measured on
one host isolates what the "on" leg adds -- full observability
(:func:`run_overhead`) or an in-loop fault injector
(:func:`run_fault_overhead`).  Throughput across commits is measured by
``perfbench`` instead (see ``tools/perf_gate.py``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.sim import System, SystemConfig
from repro.spec import FaultSpec, SchemeSpec
from repro.workloads.trace import WorkloadProfile

#: Overhead-gate measurement shape: each timed block covers at least
#: this much wall (fast profiles run several times per block), and the
#: interleaved on/off block pairs repeat for this many rounds.
_GATE_BLOCK_SECONDS = 0.25
_GATE_MAX_INNER = 16
_GATE_ROUNDS = 9

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

    def build(self, obs=None, observer=None) -> System:
        config = SystemConfig(requests_per_thread=self.requests_per_thread,
                              seed=self.seed,
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
            requests_per_thread=1500, seed=101),
        BenchProfile(
            name="conflict-heavy",
            description="row-miss traffic over a wide footprint",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=500, seed=202),
        BenchProfile(
            name="shadow-rfm",
            description="SHADOW at RAAIMT=32: RFM-heavy + translation",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=375, seed=303,
            scheme=SchemeSpec("shadow-raw", (("raaimt", 32),))),
        BenchProfile(
            name="refresh-dominated",
            description="sparse traffic; REF/idle-wake dominates events",
            workload=_REFRESH_DOMINATED, threads=2,
            requests_per_thread=187, seed=404),
        BenchProfile(
            name="idle-heavy",
            description="many near-idle threads; event-horizon "
                        "fast-forward dominates",
            workload=_IDLE_HEAVY, threads=16,
            requests_per_thread=64, seed=505),
        BenchProfile(
            name="tracker-heavy",
            description="row-miss traffic into a composed tracker "
                        "scheme (DAPPER at a low threshold): per-ACT "
                        "observe, frequent RFM TRR work, REF-window "
                        "resets",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=375, seed=606,
            scheme=SchemeSpec("dapper", (("hcnt", 1024),))),
        BenchProfile(
            name="faults-on",
            description="row-miss traffic with in-loop fault injection "
                        "at a tiny threshold: per-ACT disturbance "
                        "accumulation plus live ECC/recovery work",
            workload=_CONFLICT_HEAVY, threads=4,
            requests_per_thread=375, seed=707,
            faults=FaultSpec(hcnt=64, policy="retire", seed=707)),
    )
}


# -- overhead gates ----------------------------------------------------------------

def _profiles(names: Optional[List[str]]) -> List[str]:
    """``names`` (default: every profile), each checked to exist."""
    if names is None:
        return list(BENCH_PROFILES)
    unknown = sorted(set(names) - set(BENCH_PROFILES))
    if unknown:
        raise ValueError(f"unknown bench profiles: {unknown}; "
                         f"choose from {sorted(BENCH_PROFILES)}")
    return names


def _trace_obs_factory(trace_dir, profile_name: str):
    """Factory of per-run Observability hubs tracing to a file."""
    from repro.obs import Observability
    trace_dir = Path(trace_dir)
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{profile_name}.trace.json"

    def factory():
        return Observability.to_chrome(path, sample_interval=10_000)

    return factory


def run_overhead(names: Optional[List[str]] = None, trace_dir=None,
                 retry_over: Optional[float] = None,
                 log=print) -> Dict[str, Dict]:
    """Measure instrumentation overhead: each profile off vs fully on.

    The "on" leg enables metrics, Chrome tracing (to ``trace_dir`` when
    given, an in-memory sink otherwise) and the snapshot sampler -- the
    most expensive observability configuration.  Both legs run on this
    host back to back, so the ratio cancels machine speed.  Returns
    ``{name: {"off": entry, "on": entry, "overhead": fraction}}``.

    A percent-level ratio needs care on a noisy host, so the
    measurement is built three ways.  The legs are *interleaved* -- each round times one on and one off block back
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
    from repro.obs import Observability
    results = {}
    for name in _profiles(names):
        profile = BENCH_PROFILES[name]
        if trace_dir is not None:
            factory = _trace_obs_factory(trace_dir, name)
        else:
            def factory():
                return Observability.in_memory(sample_interval=10_000)

        def make_on(profile=profile, factory=factory):
            obs = factory()
            return profile.build(obs=obs), obs

        results[name] = _overhead_gate(
            name, profile, retry_over, make_on, what="observability",
            log=log)
    return results


def run_fault_overhead(names: Optional[List[str]] = None,
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
    names = _profiles(names)
    baked = sorted(n for n in names if BENCH_PROFILES[n].faults is not None)
    if baked:
        raise ValueError(f"profiles {baked} bake in fault injection; "
                         f"their off leg cannot be injection-free")
    results = {}
    for name in names:
        profile = BENCH_PROFILES[name]

        def make_on(profile=profile):
            return profile.build(observer=FaultSpec().build()), None

        results[name] = _overhead_gate(
            name, profile, retry_over, make_on, what="fault injection",
            log=log)
    return results


def _overhead_gate(name: str, profile: BenchProfile,
                   retry_over: Optional[float], make_on, what: str,
                   log) -> Dict:
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
                         else (profile.build(), None))
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

    def measure():
        off_walls, on_walls, result = [], [], None
        for r in range(_GATE_ROUNDS):
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

