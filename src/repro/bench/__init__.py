"""Simulator overhead gates (``shadow-repro bench``).

A small set of seeded system configurations, each stressing a different
scheduler regime (row-hit streaming, row-miss conflicts, RFM-heavy
SHADOW traffic, refresh-dominated idling, tracker work), run with and
without an "on" leg -- full observability (``--overhead``) or an in-loop
fault injector (``--fault-overhead``) -- back to back on one host.  CI
fails when either costs more than its threshold, or when the injector
changes the simulated outcome.  Throughput across commits is not
measured here: ``tools/perf_gate.py`` runs ``perfbench`` against the
merge base on the same runner.
"""

from repro.bench.harness import (
    BENCH_PROFILES,
    BenchProfile,
    check_overhead,
    run_fault_overhead,
    run_overhead,
)

__all__ = [
    "BENCH_PROFILES",
    "BenchProfile",
    "check_overhead",
    "run_fault_overhead",
    "run_overhead",
]
