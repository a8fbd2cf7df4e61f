"""Same-runner speed gate: perfbench pairs of a change against its base.

    python3 tools/perf_gate.py --base origin/main --out perf-gate.json

Run it from any directory; the change is the checkout this script lives
in.  The base revision is checked out into a temporary ``git worktree``
(or given as an existing checkout with ``--base-dir``).  For every
workload in ``BENCHMARK.json`` the script runs

    python3 perfbench/run.py --workload W --seed N --seconds 1 --trace 0

in both checkouts, ``--pairs`` times each, alternating which side runs
first.  ``--seed`` picks N (default 3, the seed the committed
``results/fig8_smoke.json`` and the digest pins were made with).  A
speed claim also needs a run at a seed that was not used while writing
the change.  The change fails when, on any workload:

* its median of an ``end_to_end`` metric is worse than the base's median
  by more than that metric's ``bound`` (both read from ``BENCHMARK.json``);
* one of its runs reports ``correct: false`` or does not finish;
* its share of failed operations is larger than the base's.

The JSON record (``--out``) names the base by its commit (a
``--base-dir`` that is not the top of a git work tree by its path),
gives the seed, and holds, per workload, both sides' medians and
IQRs, the change's delta, bound and pair wins for every metric, both
sides' correctness, failed share and outcome digests, and the failures.
Exit code 0 when the change passes, 1 when it fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = "perf-gate/1"
DEFAULT_SEED = 3

#: ``{metric: (better, bound)}``, ``better`` being "lower" or "higher".
Bounds = Dict[str, Tuple[str, float]]


def load_benchmark(path) -> Tuple[List[str], Bounds]:
    """Workload names and end-to-end metric bounds from ``BENCHMARK.json``."""
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    bounds = {}
    for metric in spec["end_to_end"]:
        better, bound = metric["better"], float(metric["bound"])
        if better not in ("lower", "higher") or not 0.0 < bound < 1.0:
            raise ValueError(f"{metric['name']}: need better lower/higher "
                             f"and a bound in (0, 1), got {better!r}, "
                             f"{bound!r}")
        bounds[metric["name"]] = (better, bound)
    return [workload["name"] for workload in spec["workloads"]], bounds


def parse_output(text: str) -> Optional[Dict]:
    """One perfbench run: its last-line JSON record plus the digest line
    (``None`` when the run printed no record)."""
    lines = text.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return None
    digest = next((" ".join(line.split()[3:]) for line in lines
                   if line.startswith("digest ")), None)
    return dict(record, digest=digest)


def run_perfbench(checkout: Path, workload: str, seed: int) -> Optional[Dict]:
    """One perfbench run of ``workload`` at ``seed`` in ``checkout``."""
    proc = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return parse_output(proc.stdout)


def _spread(values: Sequence[float]) -> Dict[str, float]:
    """Median and interquartile range."""
    iqr = 0.0
    if len(values) > 1:
        low, _, high = statistics.quantiles(values, n=4)
        iqr = high - low
    return {"median": statistics.median(values), "iqr": iqr}


def _side(runs: Sequence[Optional[Dict]]) -> Dict:
    """Finished runs, correctness, failed share and digests of one side."""
    done = [run for run in runs if run is not None]
    attempted = sum(run["attempted"] for run in done)
    return {
        "finished": len(done),
        "correct": all(run["correct"] is True for run in done),
        "failed_share": (sum(run["failed"] for run in done) / attempted
                         if attempted else 0.0),
        "digests": sorted({run["digest"] for run in done}),
    }


def compare(pairs: Sequence[Tuple[Optional[Dict], Optional[Dict]]],
            bounds: Bounds) -> Dict:
    """The verdict on one workload from its ``(base, change)`` run pairs."""
    record = {"pairs": len(pairs),
              "base": _side([base for base, _ in pairs]),
              "change": _side([change for _, change in pairs]),
              "metrics": {}}
    base, change = record["base"], record["change"]
    failures = []
    for name, side in (("base", base), ("change", change)):
        if side["finished"] < len(pairs):
            failures.append(f"{name}: {len(pairs) - side['finished']} of "
                            f"{len(pairs)} perfbench runs did not finish")
    if not change["correct"]:
        failures.append("change: a run reported correct: false")
    if change["failed_share"] > base["failed_share"]:
        failures.append(f"change: failed share {change['failed_share']:.2%} "
                        f"exceeds the base's {base['failed_share']:.2%}")
    done = [(b, c) for b, c in pairs if b is not None and c is not None]
    for name, (better, bound) in bounds.items():
        if not done:
            break
        sign = 1.0 if better == "lower" else -1.0
        values = {side: [run["metrics"][name]["value"] for run in runs]
                  for side, runs in zip(("base", "change"), zip(*done))}
        entry = {side: _spread(vals) for side, vals in values.items()}
        delta = entry["change"]["median"] / entry["base"]["median"] - 1.0
        entry.update(
            better=better, bound=bound, delta=round(delta, 4),
            wins=sum(sign * (c - b) < 0 for b, c in
                     zip(values["base"], values["change"])))
        record["metrics"][name] = entry
        if sign * delta > bound:
            failures.append(
                f"{name}: change median {entry['change']['median']:.4g} is "
                f"{abs(delta):.1%} worse than the base's "
                f"{entry['base']['median']:.4g} (bound {bound:.0%})")
    record["failures"] = failures
    return record


@contextlib.contextmanager
def base_checkout(rev: Optional[str], base_dir: Optional[str]) -> Iterator[Path]:
    """``base_dir`` as is, or a temporary worktree of ``rev``."""
    if base_dir is not None:
        yield Path(base_dir).resolve()
        return
    tmp = Path(tempfile.mkdtemp(prefix="perf-gate-"))
    path = tmp / "base"
    subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach",
                    str(path), rev], check=True)
    try:
        yield path
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                        "--force", str(path)], check=False)
        shutil.rmtree(tmp, ignore_errors=True)


def _git_rev(checkout: Path, *args: str) -> Optional[str]:
    """``git rev-parse ARGS`` in ``checkout`` (default ``HEAD``), or
    ``None`` when git fails."""
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse",
                           *(args or ("HEAD",))],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def base_dir_label(base_dir: str) -> str:
    """The commit checked out in ``base_dir`` when the directory is the
    top of a git work tree, else ``base_dir`` itself (a plain directory
    inside another repository is not that repository's commit)."""
    path = Path(base_dir).resolve()
    top = _git_rev(path, "--show-toplevel")
    if top is not None and Path(top).resolve() == path:
        return _git_rev(path) or base_dir
    return base_dir


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    base = parser.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", metavar="REV",
                      help="base revision, run from a temporary git worktree")
    base.add_argument("--base-dir", metavar="DIR",
                      help="an existing checkout of the base instead")
    parser.add_argument("--pairs", type=int, default=5,
                        help="base/change pairs per workload (default: 5)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="perfbench seed of every run "
                             f"(default: {DEFAULT_SEED})")
    parser.add_argument("--out", default="perf-gate.json", metavar="PATH",
                        help="JSON record (default: perf-gate.json)")
    args = parser.parse_args(argv)
    workloads, bounds = load_benchmark(ROOT / "BENCHMARK.json")
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    record = {
        "schema": SCHEMA,
        "base": (_git_rev(ROOT, args.base) if args.base
                 else base_dir_label(args.base_dir)),
        "change": _git_rev(ROOT),
        "seed": args.seed,
        "host": {"python": platform.python_version(),
                 "platform": platform.platform(), "cpus": os.cpu_count()},
        "workloads": {},
    }
    with base_checkout(args.base, args.base_dir) as base_dir:
        sides = (("base", base_dir), ("change", ROOT))
        for workload in workloads:
            pairs = []
            for i in range(args.pairs):
                runs = {}
                for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                    run = runs[side] = run_perfbench(checkout, workload,
                                                     args.seed)
                    status = ("did not finish" if run is None else
                              f"wall_s={run['metrics']['wall_s']['value']:.3f}")
                    print(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                          f"{status}", flush=True)
                pairs.append((runs["base"], runs["change"]))
            verdict = compare(pairs, bounds)
            record["workloads"][workload] = verdict
            for name, entry in verdict["metrics"].items():
                print(f"{workload} {name}: base {entry['base']['median']:.4g}"
                      f" change {entry['change']['median']:.4g} "
                      f"({entry['delta']:+.1%}, bound {entry['bound']:.0%}, "
                      f"change better in {entry['wins']}/{len(pairs)})")
    failures = [f"{workload}: {message}"
                for workload, verdict in record["workloads"].items()
                for message in verdict["failures"]]
    record["pass"] = not failures
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True)
                              + "\n", encoding="utf-8")
    for message in failures:
        print(f"PERF GATE: {message}", file=sys.stderr)
    print(f"perf gate {'passed' if record['pass'] else 'FAILED'}; "
          f"record in {args.out}")
    return 0 if record["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
