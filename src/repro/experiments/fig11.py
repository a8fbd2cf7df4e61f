"""Figure 11: architectural comparison vs BlockHammer and RRS.

Sweeps H_cnt from 16K to 2K on mix-high, mix-blend and a set of
mix-random mixes (DDR5-4800 in the paper; the timing grade is
selectable).  The expected shape: SHADOW stays within a few percent
everywhere; RRS collapses at low thresholds (channel-blocking swaps);
BlockHammer collapses at low thresholds (throttle delays + blacklist
misidentification).

One declarative :class:`~repro.spec.ExperimentSpec`; the mix-random
variants are separate points sharing one output path, which the generic
driver averages in order.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.experiments.configs import HCNT_SWEEP, fidelity_config
from repro.experiments.driver import run_spec
from repro.experiments.engine import Engine, archsim_scheme_specs
from repro.experiments.report import format_table
from repro.spec import ExperimentSpec, PointSpec, workload_spec


def spec(fidelity: str = "smoke") -> ExperimentSpec:
    """The figure as data: one point per (mix variant, H_cnt, scheme)."""
    fc = fidelity_config(fidelity)
    sim = fc.sim_spec(requests=fc.tracker_requests)
    threads = fc.tracker_threads
    mixes = {
        "mix-high": [workload_spec("mix-high", threads=threads)],
        "mix-blend": [workload_spec("mix-blend", threads=threads)],
    }
    if fidelity == "full":
        mixes["mix-random"] = [
            workload_spec("mix-random", seed=seed, threads=threads)
            for seed in range(1, fc.mix_random_count + 1)]
    sweep = HCNT_SWEEP if fidelity == "full" else (16384, 4096, 2048)
    points = []
    for mix, variants in mixes.items():
        for hcnt in sweep:
            for name, scheme in archsim_scheme_specs(hcnt).items():
                for workload in variants:
                    points.append(PointSpec(
                        "ws-relative",
                        ("series", f"{mix}/{name}", str(hcnt)),
                        workload=workload, scheme=scheme, sim=sim))
    return ExperimentSpec("fig11", fidelity, points,
                          labels={"hcnt_sweep": ["scheme.hcnt"]})


def run(fidelity: str = "smoke",
        engine: Optional[Engine] = None) -> Dict:
    """Run the experiment; returns the figure's series as a dict."""
    return run_spec(spec(fidelity), engine=engine)


def render(results: Dict) -> str:
    """The figure's series as a series x H_cnt table."""
    hcnts = [str(h) for h in results["hcnt_sweep"]]
    rows = [[key] + [vals[h] for h in hcnts]
            for key, vals in results["series"].items()]
    return format_table(
        ["series"] + [f"Hcnt={h}" for h in hcnts], rows,
        title=f"Figure 11: SHADOW vs BlockHammer vs RRS, weighted "
              f"speedup relative to baseline ({results['fidelity']})")
