"""The benchmark's workloads: what each one runs and how its output is checked.

Each workload drives the repository through a public entry point
(``run_spec``, ``redteam.run`` or ``Engine.run``) with an engine the caller
supplies, and returns the folded output.  ``check`` turns that output into a
list of named pass/fail checks; every check counts as one operation.

``size="tiny"`` shrinks each workload to a few small jobs for the
benchmark's own tests; the timed runs always use ``size="full"``.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: The committed figure values the fig8 sweep must reproduce.
FIG8_REFERENCE = "results/fig8_smoke.json"

#: The simulation seed ``results/fig8_smoke.json`` was produced with (the
#: fig8 smoke grid's default).  At any other seed the sweep is checked
#: for shape and range only.
FIG8_REFERENCE_SEED = 3

#: H_cnt of the red-team grid.
REDTEAM_HCNT = 1024

#: Sparse-refresh grid: schemes, threads per job and requests per thread.
SPARSE_SCHEMES = ("none", "shadow", "drr", "parfm")
SPARSE_THREADS = 2
SPARSE_REQUESTS = {"full": 4000, "tiny": 300}

Check = Tuple[str, bool]


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``run(engine, seed, size)`` plans and executes the sweep and returns its
    folded output; ``check(output, seed, size, root)`` returns the named
    output checks (``root`` is the checkout holding the reference file).
    """

    name: str
    workers: int
    run: Callable[[Any, int, str], Any]
    check: Callable[[Any, int, str, Path], List[Check]]


def _leaves(node: Any, path: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Flatten a nested dict into ``{"a/b/c": leaf}``."""
    if not isinstance(node, dict):
        return {"/".join(path): node}
    flat: Dict[str, Any] = {}
    for key, value in node.items():
        flat.update(_leaves(value, path + (str(key),)))
    return flat


# -- fig8-sweep --------------------------------------------------------------------

def _fig8_spec(seed: int, size: str):
    from repro.experiments import fig8
    spec = fig8.spec("smoke")
    points = []
    for point in spec.points:
        sim = dataclasses.replace(point.sim, seed=seed)
        if size == "tiny":
            if point.group[1] != "SHADOW" or point.group[2] not in (
                    "spec-high", "gapbs", "mix-high"):
                continue
            sim = dataclasses.replace(sim, requests=150)
        points.append(dataclasses.replace(point, sim=sim))
    return dataclasses.replace(spec, points=tuple(points))


def _run_fig8(engine, seed: int, size: str) -> Dict:
    from repro.experiments.driver import run_spec
    return run_spec(_fig8_spec(seed, size), engine=engine)


def _check_fig8(output: Dict, seed: int, size: str,
                root: Path) -> List[Check]:
    got = _leaves(output)
    if size == "full" and seed == FIG8_REFERENCE_SEED:
        with open(root / FIG8_REFERENCE) as handle:
            want = _leaves(json.load(handle))
        checks = [(f"fig8 {path} == reference", got.get(path) == value)
                  for path, value in want.items()]
        checks += [(f"fig8 {path} not in reference", False)
                   for path in got if path not in want]
        return checks
    # Any other seed: every cell is a finite slowdown ratio near 1.
    series = _leaves(output.get("relative_performance", {}))
    checks = [(f"fig8 {path} in (0.5, 1.05]",
               isinstance(value, float) and math.isfinite(value)
               and 0.5 < value <= 1.05)
              for path, value in series.items()]
    expected = 5 * 7 if size == "full" else 3
    checks.append((f"fig8 has {expected} cells", len(series) == expected))
    return checks


# -- redteam-zoo -------------------------------------------------------------------

def _redteam_scope(size: str):
    from repro.experiments.redteam import FULL_ATTACKS
    if size == "tiny":
        return ["none", "drr", "shadow"], ["double-sided"]
    return None, list(FULL_ATTACKS)


def _run_redteam(engine, seed: int, size: str) -> Dict:
    from repro.experiments import redteam
    schemes, attacks = _redteam_scope(size)
    return redteam.run("full", engine=engine, hcnt=REDTEAM_HCNT, seed=seed,
                       schemes=schemes, attacks=attacks)


def _check_redteam(report: Dict, seed: int, size: str,
                   root: Path) -> List[Check]:
    _, attacks = _redteam_scope(size)
    table = report.get("schemes", {})
    checks = []
    for attack in attacks:
        for scheme in ("none", "drr"):
            cell = table.get(scheme, {}).get(attack, {})
            checks.append((f"redteam {scheme}/{attack} uncorrectable >= 1",
                           cell.get("uncorrectable", 0) >= 1))
        cell = table.get("shadow", {}).get(attack)
        checks.append((f"redteam shadow/{attack} bits_injected == 0",
                       cell is not None and cell["bits_injected"] == 0))
    return checks


# -- sparse-refresh ----------------------------------------------------------------

def _sparse_profile():
    """Low-intensity traffic (about one miss per 50k instructions): refresh
    commands outnumber demand commands and most cycles are fast-forwarded."""
    from repro.workloads.trace import WorkloadProfile
    return WorkloadProfile(name="sparse-refresh", mpki=0.02,
                           row_buffer_locality=0.3, write_fraction=0.25,
                           footprint_pages=1024)


def _sparse_jobs(seed: int, size: str):
    from repro.experiments.engine import Job
    from repro.sim.system import SystemConfig
    from repro.spec import scheme_spec
    from repro.spec.registry import SCHEMES
    profile = _sparse_profile()
    config = SystemConfig(requests_per_thread=SPARSE_REQUESTS[size],
                          seed=seed)
    return [Job((profile,) * SPARSE_THREADS,
                scheme_spec(name, **SCHEMES.buildable_params(
                    name, {"hcnt": 4096})),
                config)
            for name in SPARSE_SCHEMES]


def _run_sparse(engine, seed: int, size: str) -> Dict:
    jobs = _sparse_jobs(seed, size)
    results = engine.run(jobs)
    return {job.scheme.kind: results.get(job) for job in jobs}


def commands(result) -> int:
    """Simulated DRAM commands of one job (ACT+PRE+RD+WR+REF+RFM)."""
    return (result.acts + result.precharges + result.reads + result.writes
            + result.refreshes + result.rfms)


def _check_sparse(output: Dict, seed: int, size: str,
                  root: Path) -> List[Check]:
    budget = SPARSE_THREADS * SPARSE_REQUESTS[size]
    checks = []
    for scheme in SPARSE_SCHEMES:
        result = output.get(scheme)
        checks.append((f"sparse {scheme} issued {budget} requests",
                       result is not None
                       and result.requests_issued == budget))
        checks.append((f"sparse {scheme} REF >= half of commands",
                       result is not None
                       and 2 * result.refreshes >= commands(result)))
    return checks


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("fig8-sweep", 2, _run_fig8, _check_fig8),
    Workload("redteam-zoo", 1, _run_redteam, _check_redteam),
    Workload("sparse-refresh", 1, _run_sparse, _check_sparse),
)}
