"""Figure 10: blast-radius sensitivity.

Sweeps the blast radius from 1 to 5 at a fixed 2K threshold.  SHADOW's
mitigating action is radius-independent (the shuffle relocates the
aggressor); PARFM and Mithril must refresh ``2 x radius`` victims per
RFM and derate their RAAIMT by the blast weight, so their overhead
grows with the radius and SHADOW overtakes them past radius 2.

One declarative :class:`~repro.spec.ExperimentSpec`; note that SHADOW's
points expand to literally identical jobs across radii, so the engine
simulates them once.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.configs import fidelity_config
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, scheme_spec, workload_spec

RADII = (1, 2, 3, 4, 5)
FIXED_HCNT = 2048


def spec(fidelity: str = "smoke", hcnt: int = FIXED_HCNT) -> ExperimentSpec:
    """The figure as data: one point per (mix, scheme, radius) cell."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec(requests=fc.tracker_requests)
    radii = RADII if fidelity == "full" else (1, 3, 5)
    mixes = (("mix-high", "mix-blend") if fidelity == "full"
             else ("mix-high",))
    points = []
    for mix in mixes:
        workload = workload_spec(mix, threads=fc.tracker_threads)
        for radius in radii:
            schemes = {
                "SHADOW": scheme_spec("shadow", hcnt=hcnt),
                "PARFM": scheme_spec("parfm", hcnt=hcnt, radius=radius),
                "Mithril": scheme_spec("mithril-area", hcnt=hcnt,
                                       radius=radius),
            }
            for name, scheme in schemes.items():
                points.append(PointSpec(
                    "ws-relative",
                    ("series", f"{mix}/{name}", str(radius)),
                    workload=workload, scheme=scheme, sim=sim))
    return ExperimentSpec("fig10", fidelity, points,
                          meta={"hcnt": hcnt, "radii": list(radii)})


def run(fidelity: str = "smoke", hcnt: int = FIXED_HCNT,
        engine: Optional[Engine] = None) -> Dict:
    """Run the experiment; returns the figure's series as a dict."""
    return run_spec(spec(fidelity, hcnt), engine=engine)


def render(results: Dict) -> str:
    """The figure's series as a series x radius table."""
    radii = results["radii"]
    rows = [[key] + [vals[str(r)] for r in radii]
            for key, vals in results["series"].items()]
    return format_table(
        ["series"] + [f"radius={r}" for r in radii], rows,
        title=f"Figure 10: blast-radius sensitivity, weighted "
              f"speedup relative to baseline (Hcnt={results['hcnt']}, "
              f"{results['fidelity']})")
