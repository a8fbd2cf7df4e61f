"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this module once per repetition, so every repetition pays
the import and planning cost a command-line invocation pays.  It prints the
repetition's record (``perfbench/measure.py``) as one JSON line.  By hand:

    PYTHONPATH=src:. python3 -m perfbench.rep --workload sparse-refresh \\
        --seed 1 --tmp .perfbench_tmp/x \\
        --t0 "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from perfbench.hostspeed import HostSpeed


def main(argv: Optional[List[str]] = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("plain", "spans", "profile"),
                        default="plain")
    parser.add_argument("--jobs", type=int, default=None,
                        help="engine workers (default: the workload's own)")
    parser.add_argument("--tmp", required=True,
                        help="scratch directory for the cache and spool")
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this process "
                             "was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if os.environ.get("REPRO_FAULT_INJECT"):
        sys.exit("perfbench: REPRO_FAULT_INJECT is set; refusing to run")

    # Sample the host's speed from here until the jobs reach the engine;
    # importing the repository is part of the set-up being timed.
    setup_speed = HostSpeed()
    setup_speed.sample()
    setup_speed.start()
    from perfbench.measure import run_once
    record = run_once(args.workload, args.seed, args.size, args.mode,
                      Path(args.tmp), args.t0, setup_speed,
                      workers=args.jobs, setup_only=args.setup_only)
    print(json.dumps(record))


if __name__ == "__main__":
    main()
