"""Repository benchmark: times the fig8, red-team and sparse-refresh sweeps.

    python3 perfbench/run.py --workload fig8-sweep --seed 3 --seconds 35 --trace 0

Run it from the repository root.  Each repetition runs in a fresh interpreter
(``perfbench/rep.py``) with a fresh, cold result cache under
``.perfbench_tmp/``.  ``--trace 0`` repeats the workload for about
``--seconds`` and reports the end-to-end metrics (``timed_run``).
``--trace 1`` makes three passes: plain, with coarse spans, and under
cProfile.  It then reports the per-layer metrics.  Either way the last line
of output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every repetition ran, even if a check
failed; it is non-zero, with no JSON line, when a repetition could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("fig8-sweep", "redteam-zoo", "sparse-refresh")

#: Set-up-only interpreter starts per timed run, on top of the set-up every
#: repetition also reports.
SETUP_PROBES = 5

#: Every repetition of one run must end within this many seconds of its
#: start; the run's own deadline is 180 s.
RUN_DEADLINE_S = 170


def self_metric(layer: str) -> str:
    """``sim`` -> ``sim.self_s``; ``controller.scan`` ->
    ``controller.scan_self_s``."""
    return layer + ("_self_s" if "." in layer else ".self_s")


class RepFailed(RuntimeError):
    """A repetition exited non-zero or printed no record."""


class Runner:
    """Starts repetitions of one workload, each in its own interpreter."""

    def __init__(self, workload: str, seed: int, size: str, jobs: int):
        self.args = ["--workload", workload, "--seed", str(seed),
                     "--size", size]
        if jobs:
            self.args += ["--jobs", str(jobs)]
        self.scratch = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.count = 0
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.env = {key: value for key, value in os.environ.items()
                    if key != "REPRO_FAULT_INJECT"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)])
        if "REPRO_FAULT_INJECT" in os.environ:
            print("perfbench: ignoring REPRO_FAULT_INJECT", file=sys.stderr)

    def rep(self, *extra: str) -> Dict:
        self.count += 1
        tmp = self.scratch / str(self.count)
        t0 = time.monotonic()
        command = [sys.executable, "-m", "perfbench.rep", *self.args,
                   "--tmp", str(tmp), *extra, "--t0", repr(t0)]
        # A session of its own, so that pool workers left behind by a
        # failed or hung repetition can be killed with it.
        proc = subprocess.Popen(command, cwd=ROOT, env=self.env, text=True,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            out, err = "", "repetition timed out\n"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass        # the session has already ended
            proc.wait()
            shutil.rmtree(tmp, ignore_errors=True)
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(err)
            raise RepFailed(f"repetition exited with {proc.returncode}")
        return json.loads(lines[-1])

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)
        try:
            self.scratch.parent.rmdir()
        except OSError:
            pass        # another run still uses it


def _metric(value: float, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def timed_run(runner: Runner, seconds: float):
    """Repeat the workload for about ``seconds``; the end-to-end metrics.

    Times are scaled to the reference host speed (``hostspeed.py``), then
    the median over the repetitions is taken.  Peak memory takes the
    smallest repetition instead: in pool workers it depends on when the
    cyclic garbage collector runs, which moves it by up to 15% between
    repetitions.
    """
    setups = [runner.rep("--setup-only") for _ in range(SETUP_PROBES)]
    reps: List[Dict] = []
    start = time.monotonic()
    while True:
        rep_start = time.monotonic()
        reps.append(runner.rep())
        now = time.monotonic()
        if now + (now - rep_start) - start > seconds:
            break       # another repetition would overrun the budget
    for rep in reps:
        print(f"rep wall_s={rep['wall_s']:.3f} "
              f"execute_s={rep['execute_s']:.3f} "
              f"slowdown={rep['job_slowdown']:.3f} "
              f"setup_s={rep['setup_s']:.3f} "
              f"peak_rss_mb={rep['peak_rss_mb']:.1f}", file=sys.stderr)
    median = statistics.median
    metrics = {
        "wall_s": _metric(
            median(r["wall_s"] / r["job_slowdown"] for r in reps), "s"),
        "host_ns_per_cmd": _metric(
            median(r["execute_s"] / r["job_slowdown"] * 1e9 / r["commands"]
                   for r in reps), "ns"),
        "setup_s": _metric(
            median(r["setup_s"] / r["setup_slowdown"]
                   for r in setups + reps), "s"),
        "peak_rss_mb": _metric(min(r["peak_rss_mb"] for r in reps), "MB"),
    }
    return reps, metrics


def traced_run(runner: Runner):
    """Plain, spans and cProfile passes; the per-layer metrics."""
    plain = runner.rep("--mode", "plain")
    spans = runner.rep("--mode", "spans")
    prof = runner.rep("--mode", "profile")
    cmds = max(1, plain["commands"])
    layer = {
        "experiments.plan_s": (spans["plan_s"], "s"),
        "experiments.pool_overhead_s": (plain["pool_overhead_s"], "s"),
        "experiments.pool_start_s": (plain["pool_start_s"], "s"),
        "experiments.tail_idle_s": (plain["tail_idle_s"], "s"),
        "experiments.jobs_executed": (plain["jobs_executed"], "count"),
        "experiments.jobs_deduped": (plain["jobs_deduped"], "count"),
        "experiments.jobs_failed": (plain["jobs_failed"], "count"),
        "utils.cache_get_s": (spans.get("cache_get_s", 0.0), "s"),
        "utils.cache_put_s": (spans.get("cache_put_s", 0.0), "s"),
        "utils.cache_bytes_written": (plain["cache_bytes"], "bytes"),
        "workloads.materialize_s": (spans["materialize_s"], "s"),
        "workloads.requests": (plain["requests"], "count"),
        "sim.run_s": (spans["sim_run_s"], "s"),
        "sim.cycles": (plain["cycles"], "count"),
        "sim.cycles_per_cmd": (plain["cycles"] / cmds, "cycles"),
        "controller.scans_per_cmd": (prof["scans"] / cmds, "count"),
        "dram.acts": (plain["acts"], "count"),
        "dram.refs": (plain["refs"], "count"),
        "dram.rfms": (plain["rfms"], "count"),
        "dram.reads": (plain["reads"], "count"),
        "dram.writes": (plain["writes"], "count"),
        "faults.bits_injected": (plain["bits_injected"], "count"),
        "faults.uncorrectable": (plain["uncorrectable"], "count"),
        "faults.repairs": (plain["repairs"], "count"),
        "trace.overhead_frac": (prof["wall_s"] / plain["wall_s"] - 1.0,
                                "ratio"),
    }
    total = sum(prof["self_s"].values()) or 1.0
    print("layer self-time shares under cProfile:")
    for name, seconds in prof["self_s"].items():
        layer[self_metric(name)] = (seconds, "s")
        print(f"  {self_metric(name):<26} {seconds:9.3f} s "
              f"{100.0 * seconds / total:6.1f} %")
    metrics = {name: _metric(value, unit)
               for name, (value, unit) in sorted(layer.items())}
    return [plain, spans, prof], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload, for the "
                             "benchmark's own tests")
    parser.add_argument("--jobs", type=int, default=0,
                        help="engine workers (default: the workload's own)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run it from a "
              f"checkout of the repository", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, args.size, args.jobs)
    try:
        if args.trace:
            reps, metrics = traced_run(runner)
        else:
            reps, metrics = timed_run(runner, args.seconds)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    digests = sorted({r["digest"] for r in reps})
    for name in sorted({n for r in reps for n in r["failed_checks"]}):
        print(f"check failed: {name}", file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} {' '.join(digests)}")
    result = {
        "correct": len(digests) == 1 and all(r["failed"] == 0 for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
