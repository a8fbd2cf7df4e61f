"""Table III: SPICE-derived timing values of SHADOW.

Regenerates each row (tRCD', row copy, tRCD_RM, tWR_RM, tRD_RM) from
the analytical circuit model plus the Section VII-B shuffle totals for
both speed grades.

One declarative :class:`~repro.spec.ExperimentSpec` of analytic points:
``circuit-table3`` produces the row grid, one ``shuffle-total`` point
per speed grade produces the Section VII-B totals.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.analysis.circuit import CircuitModel
from repro.experiments.driver import METRICS, AnalyticMetric, run_spec
from repro.experiments.engine import Engine
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec

#: The published table for the comparison column.
PAPER = {
    "tRCD'": (17.7, "+29%"),
    "row-copy": (73.9, "-"),
    "tRCD_RM": (2.3, "-83%"),
    "tWR_RM": (9.0, "-24%"),
    "tRD_RM": (4.0, "-71%"),
}


class _CircuitTable3(AnalyticMetric):
    """Every Table III row from the analytical circuit model."""

    def value(self, rp, plan, results):
        rows = {}
        for definition, abbrev, timing, baseline, ratio in \
                CircuitModel().table3().rows():
            key = abbrev if abbrev != "-" else "row-copy"
            rows[key] = {
                "definition": definition,
                "timing_ns": timing,
                "baseline_ns": baseline,
                "ratio": ratio,
            }
        return rows


class _ShuffleTotal(AnalyticMetric):
    """The Section VII-B end-to-end shuffle total for one speed grade."""

    def value(self, rp, plan, results):
        return CircuitModel().shuffle_total_ns(rp.params["tras_ns"],
                                               rp.params["trp_ns"])


METRICS.register("circuit-table3", _CircuitTable3())
METRICS.register("shuffle-total", _ShuffleTotal())


def spec(fidelity: str = "full") -> ExperimentSpec:
    """The table as data: the row grid plus the two shuffle totals."""
    return ExperimentSpec("table3", fidelity, (
        PointSpec("circuit-table3", ("rows",)),
        PointSpec("shuffle-total", ("shuffle_total_ns", "DDR4-2666"),
                  params={"tras_ns": 32.25, "trp_ns": 14.25}),
        PointSpec("shuffle-total", ("shuffle_total_ns", "DDR5-4800"),
                  params={"tras_ns": 32.0, "trp_ns": 16.25}),
    ))


def run(fidelity: str = "full", engine: Optional[Engine] = None) -> Dict:
    """Compute every Table III row; returns the result dict."""
    return run_spec(spec(fidelity), engine=engine)


def render(results: Dict) -> str:
    """The timing rows beside the paper's, then the shuffle totals."""
    display = []
    for key, row in results["rows"].items():
        paper_t, paper_r = PAPER[key]
        ratio = f"{row['ratio']:+.0%}" if row["ratio"] is not None else "-"
        display.append([
            row["definition"], key, f"{row['timing_ns']:.1f}ns",
            f"{row['baseline_ns']:.1f}ns" if row["baseline_ns"] else "-",
            ratio, f"{paper_t}ns / {paper_r}",
        ])
    lines = [format_table(
        ["Definition", "Abbrev", "Timing", "Baseline", "Ratio", "Paper"],
        display, title="Table III: SHADOW timing values (analytical "
                       "circuit model)")]
    for grade, ns in results["shuffle_total_ns"].items():
        lines.append(f"row-shuffle total @ {grade}: {ns:.0f} ns "
                     f"(paper: {178 if 'DDR4' in grade else 186} ns)")
    return "\n".join(lines)
