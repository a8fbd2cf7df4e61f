"""Figure 8: relative performance of SHADOW vs RFM baselines and DRR.

Single-threaded SPEC groups (HIGH/MED/LOW, reciprocal execution time),
multi-threaded GAPBS and NPB, and the mix-high/mix-blend multi-
programmed mixes (weighted speedup), all normalized to the unprotected
baseline at the paper's default H_cnt of 4K.

The whole figure is one declarative :class:`~repro.spec.ExperimentSpec`
(:func:`spec`): per-app single-thread cells, per-suite multi-thread
cells and the mix weighted-speedup cells, each a ``PointSpec`` naming
its metric and output path.  The generic driver enumerates the jobs,
deduplicates them, serves cache hits and fans the rest out across
``--jobs`` workers.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.configs import DEFAULT_HCNT, fidelity_config
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine, rfm_scheme_specs
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, workload_spec
from repro.workloads import (
    GAPBS_PROFILES,
    NPB_PROFILES,
    SPEC_HIGH,
    SPEC_LOW,
    SPEC_MED,
)


def spec(fidelity: str = "smoke",
         hcnt: int = DEFAULT_HCNT) -> ExperimentSpec:
    """The figure as data: one point per cell of the paper's grid."""
    fc = fidelity_config(fidelity)
    schemes = rfm_scheme_specs(hcnt)
    st_sim = fc.sim_spec(requests=fc.single_thread_requests)
    mt_sim = fc.sim_spec()
    points = []
    for name, scheme in schemes.items():
        # Single-threaded SPEC groups: per-app reciprocal execution
        # time of alone runs, averaged within the group.
        for group, apps in (("high", SPEC_HIGH), ("med", SPEC_MED),
                            ("low", SPEC_LOW)):
            for app in apps:
                points.append(PointSpec(
                    "st-relative",
                    ("relative_performance", name, f"spec-{group}"),
                    workload=workload_spec("spec", app=app),
                    scheme=scheme, sim=st_sim))
        # Multi-threaded suites: homogeneous shared runs, slowest
        # thread, averaged over the suite's apps.
        for suite_name, suite in (("gapbs", GAPBS_PROFILES),
                                  ("npb", NPB_PROFILES)):
            for app in sorted(suite)[:fc.apps_per_suite]:
                points.append(PointSpec(
                    "mt-relative",
                    ("relative_performance", name, suite_name),
                    workload=workload_spec(suite_name, app=app,
                                           threads=fc.mt_threads),
                    scheme=scheme, sim=mt_sim))
        # Multi-programmed mixes: weighted speedup vs baseline.
        for mix in ("mix-high", "mix-blend"):
            points.append(PointSpec(
                "ws-relative",
                ("relative_performance", name, mix),
                workload=workload_spec(mix, threads=fc.threads),
                scheme=scheme, sim=mt_sim))
    return ExperimentSpec("fig8", fidelity, points, meta={"hcnt": hcnt})


def run(fidelity: str = "smoke", hcnt: int = DEFAULT_HCNT,
        engine: Optional[Engine] = None) -> Dict:
    """Run the experiment; returns the figure's series as a dict."""
    return run_spec(spec(fidelity, hcnt), engine=engine)


def render(results: Dict) -> str:
    """The figure's series as a scheme x workload table."""
    series = results["relative_performance"]
    workloads = list(next(iter(series.values())))
    rows = [[name] + [series[name][w] for w in workloads]
            for name in series]
    return format_table(
        ["scheme"] + workloads, rows,
        title=f"Figure 8: performance relative to no-mitigation "
              f"(Hcnt={results['hcnt']}, {results['fidelity']})")
