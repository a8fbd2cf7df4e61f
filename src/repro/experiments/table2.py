"""Table II: RH-induced bit-flip probability per rank-year.

Sweeps RAAIMT in {128, 64, 32} against H_cnt in {8K, 4K, 2K} through the
Appendix XI analysis (:mod:`repro.analysis.security`) and prints the
same grid the paper does, marking secure (<1%/rank-year) entries.

The grid is one declarative :class:`~repro.spec.ExperimentSpec` of
analytic ``security-rank-year`` points (closed-form -- the generic
driver plans no simulation jobs for them).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.security import SecurityAnalysis, SecurityParams
from repro.experiments.driver import METRICS, AnalyticMetric, run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table, scientific
from repro.spec import ExperimentSpec, PointSpec

RAAIMT_VALUES = (128, 64, 32)
HCNT_VALUES = (8192, 4096, 2048)

#: Paper values, for the side-by-side comparison column.
PAPER = {
    (128, 8192): "2E-15", (128, 4096): "4E-01", (128, 2048): "1",
    (64, 8192): "2E-43", (64, 4096): "1E-14", (64, 2048): "5E-01",
    (32, 8192): "0", (32, 4096): "1E-43", (32, 2048): "9E-15",
}


class _SecurityRankYear(AnalyticMetric):
    """One Table II cell: closed-form flip probability per rank-year."""

    def value(self, rp, plan, results):
        analysis = SecurityAnalysis(
            SecurityParams(hcnt=rp.params["hcnt"],
                           raaimt=rp.params["raaimt"]))
        result = analysis.rank_year()
        return {
            "probability": result["overall"],
            "scenario1": result["scenario1"],
            "scenario2": result["scenario2"],
            "scenario3": result["scenario3"],
            "secure": result["overall"] < 0.01,
            "paper": rp.params["paper"],
        }


METRICS.register("security-rank-year", _SecurityRankYear())


def spec(fidelity: str = "full") -> ExperimentSpec:
    """The table as data: one analytic point per (RAAIMT, H_cnt) cell."""
    points = []
    for raaimt in RAAIMT_VALUES:
        for hcnt in HCNT_VALUES:
            points.append(PointSpec(
                "security-rank-year",
                ("cells", f"{raaimt},{hcnt}"),
                params={"raaimt": raaimt, "hcnt": hcnt,
                        "paper": PAPER[(raaimt, hcnt)]}))
    return ExperimentSpec("table2", fidelity, points)


def run(fidelity: str = "full", engine: Optional[Engine] = None) -> Dict:
    """Compute the grid; ``fidelity`` is accepted for interface parity
    (the analysis is closed-form and always runs at full accuracy)."""
    return run_spec(spec(fidelity), engine=engine)


def render(results: Dict) -> str:
    """The RAAIMT x H_cnt grid beside the paper's values."""
    rows = []
    for raaimt in RAAIMT_VALUES:
        row = [raaimt]
        for hcnt in HCNT_VALUES:
            cell = results["cells"][f"{raaimt},{hcnt}"]
            mark = "*" if cell["secure"] else " "
            row.append(f"{scientific(cell['probability'])}{mark} "
                       f"(paper {cell['paper']})")
        rows.append(row)
    return format_table(
        ["RAAIMT", "Hcnt=8K", "Hcnt=4K", "Hcnt=2K"], rows,
        title="Table II: SHADOW bit-flip probability per DDR5 rank-year "
              "(* = secure, <1%)")
