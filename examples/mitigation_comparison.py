#!/usr/bin/env python3
"""Compare SHADOW against the baseline mitigations on one mix.

Runs mix-blend under each scheme, reporting the relative weighted
speedup (performance), the mitigation activity (RFMs / shuffles /
swaps / throttles, read from each run's observability counters), and
the silicon cost from the area model -- the trade-off triangle the
paper's Sections III and VII argue about.

Run:  python examples/mitigation_comparison.py
"""

from repro.analysis.area import AreaModel
from repro.experiments import Engine, run_spec
from repro.spec import (
    ExperimentSpec,
    PointSpec,
    SimSpec,
    scheme_spec,
    workload_spec,
)

HCNT = 4096

#: Table label -> scheme, built through the central scheme registry.
COMPARISON = {
    "SHADOW": scheme_spec("shadow", hcnt=HCNT),
    "PARFM": scheme_spec("parfm", hcnt=HCNT),
    "Mithril-perf": scheme_spec("mithril-perf", hcnt=HCNT),
    "Mithril-area": scheme_spec("mithril-area", hcnt=HCNT),
    "DRR": scheme_spec("drr"),
    "BlockHammer": scheme_spec("blockhammer", hcnt=HCNT),
    "RRS": scheme_spec("rrs", hcnt=HCNT),
}

#: Activity column: (count of the shared run, label).  Dotted names are
#: the counters of the events each mitigation emits.
ACTIVITY = [("rfms", "RFMs"),
            ("mitigation.shuffle", "shuffles"),
            ("mitigation.swap", "swaps"),
            ("mitigation.throttle", "throttled ACTs")]


def comparison_spec() -> ExperimentSpec:
    """One ``ws-relative`` point plus one count per activity per scheme;
    the counts read the scheme's shared run, so they add no simulation."""
    workload = workload_spec("mix-blend", threads=8)
    sim = SimSpec(requests=2000, seed=9)
    points = []
    for label, scheme in COMPARISON.items():
        points.append(PointSpec("ws-relative", (label, "rel"),
                                workload=workload, scheme=scheme, sim=sim))
        points += [PointSpec("shared-count", (label, stat),
                             workload=workload, scheme=scheme, sim=sim,
                             params={"stat": stat})
                   for stat, _ in ACTIVITY]
    return ExperimentSpec("mitigation-comparison", "smoke", points)


def activity(row) -> str:
    parts = [f"{row[stat]} {label}" for stat, label in ACTIVITY
             if row[stat]]
    return ", ".join(parts) or "-"


def main() -> None:
    results = run_spec(comparison_spec(), engine=Engine(use_cache=False))
    area = AreaModel()
    comparison_mm2 = area.comparison(hcnt=HCNT)

    print(f"mix-blend, 8 threads, Hcnt={HCNT}, DDR4-2666")
    print(f"{'scheme':14s} {'rel. perf':>9s}  {'chip area':>10s}  activity")
    for name in COMPARISON:
        row = results[name]
        area_key = {"SHADOW": "SHADOW", "Mithril-perf": "Mithril-perf",
                    "Mithril-area": "Mithril-area",
                    "RRS": "RRS (MC-side)"}.get(name)
        mm2 = f"{comparison_mm2[area_key]:.2f}mm2" if area_key else "~0"
        print(f"{name:14s} {row['rel']:9.4f}  {mm2:>10s}  {activity(row)}")

    report = area.shadow_report()
    print(f"\nSHADOW silicon: {report.total_mm2:.2f} mm2 "
          f"({report.fraction_of_die:.2%} of a DDR5 die; paper: 0.47%), "
          f"capacity overhead {area.capacity_overhead():.2%} "
          f"(paper: 0.6%)")


if __name__ == "__main__":
    main()
