"""Figure 9: tRCD sensitivity of SHADOW.

Sweeps SHADOW's effective tRCD' over {23, 25, 27} tCK (the default is
25) against the no-mitigation baseline at 19 tCK, across H_cnt from 16K
to 2K on mix-high and mix-blend.  One declarative
:class:`~repro.spec.ExperimentSpec` of weighted-speedup points, run by
the generic driver (deduplicated jobs, persistent cache, ``--jobs``
workers).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.configs import HCNT_SWEEP, fidelity_config
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec

TRCD_VALUES = (23, 25, 27)


def spec(fidelity: str = "smoke") -> ExperimentSpec:
    """The figure as data: one point per (mix, tRCD', H_cnt) cell."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec()
    points = []
    for mix in ("mix-high", "mix-blend"):
        workload = workload_spec(mix, threads=fc.threads)
        for trcd in TRCD_VALUES:
            for hcnt in HCNT_SWEEP:
                points.append(PointSpec(
                    "ws-relative",
                    ("series", f"{mix}/tRCD{trcd}", str(hcnt)),
                    workload=workload,
                    scheme=scheme_spec("shadow-trcd", trcd=trcd,
                                       hcnt=hcnt),
                    sim=sim))
    return ExperimentSpec("fig9", fidelity, points)


def run(fidelity: str = "smoke",
        engine: Optional[Engine] = None) -> Dict:
    """Run the experiment; returns the figure's series as a dict."""
    return run_spec(spec(fidelity), engine=engine)


def render(results: Dict) -> str:
    """The figure's series as a series x H_cnt table."""
    hcnts = [str(h) for h in HCNT_SWEEP]
    rows = [[key] + [vals[h] for h in hcnts]
            for key, vals in results["series"].items()]
    return format_table(
        ["series"] + [f"Hcnt={h}" for h in hcnts], rows,
        title=f"Figure 9: SHADOW tRCD sensitivity, weighted speedup "
              f"relative to tRCD19 baseline ({results['fidelity']})")
