"""Python-level function calls per simulated DRAM command, per workload.

    python3 tools/calls_per_cmd.py --seed 3

Runs every job of each ``BENCHMARK.json`` workload inline (one process,
no result cache) under cProfile and divides the calls of functions
written in Python by the simulated DRAM commands (ACT+PRE+RD+WR+REF+RFM)
of all jobs.  Builtins (C functions and methods, which cProfile files
under ``~``) are left out, so the count shows the calls a change can
remove by inlining.  For a given tree and seed the ratio repeats to the
second decimal; only first-time imports inside a job (a few hundred
calls) vary with the interpreter's state.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent


def python_calls(profiler: cProfile.Profile) -> int:
    """Calls of every profiled function that is not a builtin."""
    return sum(calls for (path, _line, _func), (_cc, calls, *_rest)
               in pstats.Stats(profiler).stats.items() if path != "~")


def count(workload_name: str, seed: int) -> Dict[str, float]:
    """Calls, commands and their ratio over ``workload_name``'s jobs."""
    from repro.experiments.engine import Engine, JobResult, _execute
    from perfbench.workloads import WORKLOADS, commands

    totals = {"calls": 0, "commands": 0}

    def worker(job):
        profiler = cProfile.Profile()
        profiler.enable()
        try:
            payload = _execute(job)
        finally:
            profiler.disable()
        totals["calls"] += python_calls(profiler)
        totals["commands"] += commands(JobResult.from_dict(payload))
        return payload

    engine = Engine(jobs=1, use_cache=False, worker=worker)
    WORKLOADS[workload_name].run(engine, seed, "full")
    totals["per_command"] = totals["calls"] / max(1, totals["commands"])
    return totals


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS
    for name in WORKLOADS:
        totals = count(name, args.seed)
        print(f"{name} seed={args.seed}: {totals['calls']} calls / "
              f"{totals['commands']} commands = "
              f"{totals['per_command']:.2f} per command", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
